(* The committed repro corpus: every artifact under corpus/ must load,
   replay, and match its recorded expectation. *)

module Campaign = Rtr_check.Campaign
module Oracle = Rtr_check.Oracle
module Json = Rtr_obs.Json

let corpus_files () =
  Sys.readdir "corpus" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.map (Filename.concat "corpus")

let test_corpus_present () =
  let files = corpus_files () in
  Alcotest.(check bool) "at least three corpus scenarios" true
    (List.length files >= 3);
  Alcotest.(check bool) "includes the Rocketfuel-derived slice" true
    (List.exists (fun f -> Filename.basename f = "rocketfuel_slice.json") files);
  (* One shrunk episode artifact per timeline kind, including the
     expected Theorem-2 relaxation violations under cascades. *)
  List.iter
    (fun name ->
      Alcotest.(check bool) ("includes " ^ name) true
        (List.exists (fun f -> Filename.basename f = name) files))
    [
      "episode_cascade_thm2.json";
      "episode_transient_thm2.json";
      "episode_moving_thm2.json";
      "episode_transient_no_loop.json";
    ]

let test_corpus_replays_green () =
  (* Matched means the outcome agreed with the artifact's [expect]
     field — a reproduced violation on an [expect=violation] artifact
     is green, exactly like a pass on an [expect=pass] one. *)
  List.iter
    (fun path ->
      match Result.bind (Campaign.load_file path) Campaign.replay with
      | Ok (Campaign.Matched _) -> ()
      | Ok (Campaign.Mismatched { expected; got }) ->
          Alcotest.failf "%s: expected %s, got %s" path expected
            (match got with
            | None -> "a pass"
            | Some v -> "violation: " ^ v.Oracle.detail)
      | Error msg -> Alcotest.failf "%s: %s" path msg)
    (corpus_files ())

let test_replay_rejects_malformed () =
  let reject s =
    match Result.bind (Json.parse s) Campaign.replay with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" s
  in
  reject {|{"oracle":"optimal"}|};
  reject {|{"format":"rtr-check/2","oracle":"optimal"}|};
  reject {|{"format":"rtr-check/1","oracle":"nonsense"}|};
  reject {|{"format":"rtr-check/1","oracle":"optimal"}|};
  reject {|{"format":"rtr-check/1","oracle":"optimal","inject":"nonsense","spec":{}}|}

let test_replay_detects_drift () =
  (* An artifact that *expects* a violation on a spec the protocol
     handles fine must come back Mismatched, not Matched — that is the
     signal a recorded bug has silently stopped reproducing. *)
  let spec =
    Rtr_check.Spec.generate (Rtr_util.Rng.make 7) ~name:"drift"
  in
  let artifact =
    Campaign.artifact_json ~oracle:(Option.get (Oracle.find "optimal")) ~expect:`Violation spec
  in
  match Campaign.replay artifact with
  | Ok (Campaign.Mismatched { expected = "violation"; got = None }) -> ()
  | Ok _ -> Alcotest.fail "drifted artifact not flagged"
  | Error msg -> Alcotest.fail msg

let suite =
  [
    Alcotest.test_case "corpus present" `Quick test_corpus_present;
    Alcotest.test_case "corpus replays green" `Quick test_corpus_replays_green;
    Alcotest.test_case "malformed artifacts rejected" `Quick
      test_replay_rejects_malformed;
    Alcotest.test_case "expectation drift detected" `Quick
      test_replay_detects_drift;
  ]
