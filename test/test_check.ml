(* The rtr_check fuzzing subsystem: spec round-trips and shrinking
   moves, oracles green on the real protocol, the injected Theorem-2
   bug caught / shrunk / reproducible, and campaigns independent of the
   worker count. *)

module Spec = Rtr_check.Spec
module Oracle = Rtr_check.Oracle
module Shrink = Rtr_check.Shrink
module Campaign = Rtr_check.Campaign
module Json = Rtr_obs.Json

let spec_t = Alcotest.testable (fun fmt s -> Fmt.string fmt s.Spec.name) Spec.equal

let oracle name = Option.get (Oracle.find name)

let gen_spec seed =
  Spec.generate (Rtr_util.Rng.make seed) ~name:(Printf.sprintf "t-%d" seed)

let test_json_round_trip () =
  for seed = 0 to 24 do
    let spec = gen_spec seed in
    let rendered = Json.to_string (Spec.to_json spec) in
    match Result.bind (Json.parse rendered) Spec.of_json with
    | Error msg -> Alcotest.failf "seed %d: %s" seed msg
    | Ok spec' -> Alcotest.check spec_t "round-trips" spec spec'
  done;
  (* Explicit failures too. *)
  let spec = gen_spec 99 in
  let spec =
    { spec with Spec.failure = Spec.Explicit { nodes = [ 1 ]; links = [ (0, 2) ] } }
  in
  let rendered = Json.to_string (Spec.to_json spec) in
  Alcotest.(check bool) "explicit round-trips" true
    (Result.bind (Json.parse rendered) Spec.of_json = Ok spec)

let test_of_json_rejects () =
  let reject s =
    match Result.bind (Json.parse s) Spec.of_json with
    | Ok _ -> Alcotest.failf "accepted %s" s
    | Error _ -> ()
  in
  reject "{}";
  reject
    {|{"name":"x","n":3,"coords":[[0,0],[1,1]],"edges":[[0,1,1,1]],"failure":{"kind":"disc","cx":0,"cy":0,"r":1}}|};
  reject {|{"name":"x","n":2,"coords":[[0,0],[1,1]],"edges":[[0,1,1,1]],"failure":{"kind":"worm"}}|}

(* Well-formed JSON naming a spec that [Spec.build] would crash on:
   each must decode to [Error], never reach the graph builder. *)
let test_of_json_rejects_hostile () =
  let square = {|"coords":[[0,0],[0,10],[10,10],[10,0]]|}
  and ring = {|[[0,1,1,1],[1,2,1,1],[2,3,1,1],[3,0,1,1]]|}
  and none = {|{"kind":"explicit","nodes":[],"links":[]}|} in
  let spec ?(n = "4") ?(coords = square) ?(edges = ring) ?(failure = none)
      ?(episodes = "") () =
    Printf.sprintf {|{"name":"hostile","n":%s,%s,"edges":%s,"failure":%s%s}|}
      n coords edges failure episodes
  in
  let reject what s =
    match Result.bind (Json.parse s) Spec.of_json with
    | Ok _ -> Alcotest.failf "%s accepted: %s" what s
    | Error _ -> ()
  in
  (match Result.bind (Json.parse (spec ())) Spec.of_json with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "the well-formed base spec was rejected: %s" e);
  reject "failed node 7"
    (spec ~failure:{|{"kind":"explicit","nodes":[7],"links":[]}|} ());
  reject "negative failed node"
    (spec ~failure:{|{"kind":"explicit","nodes":[-1],"links":[]}|} ());
  reject "failed link to node 9"
    (spec ~failure:{|{"kind":"explicit","nodes":[],"links":[[0,9]]}|} ());
  reject "edge to node 9" (spec ~edges:{|[[0,1,1,1],[1,9,1,1]]|} ());
  reject "flap of a link to node 5"
    (spec
       ~episodes:{|,"episodes":[{"kind":"flap","at":1,"up_at":2,"links":[[5,0]]}]|}
       ());
  reject "cascade failing node 4"
    (spec
       ~episodes:
         {|,"episodes":[{"kind":"cascade","at":1,"failure":{"kind":"explicit","nodes":[4],"links":[]}}]|}
       ());
  reject "n = 0" (spec ~n:"0" ~coords:{|"coords":[]|} ~edges:"[]" ());
  reject "self loop" (spec ~edges:{|[[0,1,1,1],[2,2,1,1]]|} ());
  reject "duplicate edge" (spec ~edges:{|[[0,1,1,1],[1,0,1,1]]|} ());
  reject "zero cost" (spec ~edges:{|[[0,1,1,1],[1,2,0,1]]|} ());
  reject "negative cost" (spec ~edges:{|[[0,1,1,-3]]|} ())

let test_shrink_moves () =
  let spec = gen_spec 5 in
  (match Spec.drop_link spec 0 with
  | None -> Alcotest.fail "drop_link 0 must apply"
  | Some s ->
      Alcotest.(check int) "one edge fewer"
        (List.length spec.Spec.edges - 1)
        (List.length s.Spec.edges));
  Alcotest.(check bool) "drop_link out of range" true
    (Spec.drop_link spec (List.length spec.Spec.edges) = None);
  (match Spec.drop_node spec (spec.Spec.n - 1) with
  | None -> Alcotest.fail "drop_node must apply"
  | Some s ->
      Alcotest.(check int) "one node fewer" (spec.Spec.n - 1) s.Spec.n;
      Alcotest.(check int) "coords follow" (spec.Spec.n - 1)
        (Array.length s.Spec.coords);
      List.iter
        (fun (u, v, _, _) ->
          if u >= s.Spec.n || v >= s.Spec.n then
            Alcotest.fail "dangling endpoint after renumbering")
        s.Spec.edges);
  (* Dropping a node remaps an explicit failure with the survivors. *)
  let exp =
    { spec with Spec.failure = Spec.Explicit { nodes = [ spec.Spec.n - 1 ]; links = [] } }
  in
  (match Spec.drop_node exp 0 with
  | None -> Alcotest.fail "drop_node 0 must apply"
  | Some s -> (
      match s.Spec.failure with
      | Spec.Explicit { nodes; _ } ->
          Alcotest.(check (list int)) "failed node renumbered"
            [ s.Spec.n - 1 ] nodes
      | Spec.Disc _ -> Alcotest.fail "failure kind changed"));
  match Spec.halve_radius spec with
  | None -> Alcotest.fail "halve_radius must apply to a disc"
  | Some s -> (
      match (s.Spec.failure, spec.Spec.failure) with
      | Spec.Disc { r; _ }, Spec.Disc { r = r0; _ } ->
          Alcotest.(check bool) "radius halved" true (r < r0)
      | _ -> Alcotest.fail "failure kind changed")

let test_oracles_pass_on_protocol () =
  let outcome =
    Campaign.run { Campaign.default with Campaign.cases = 30; seed = 7 }
  in
  Alcotest.(check int) "all cases ran" 30 outcome.Campaign.cases_run;
  Alcotest.(check int) "no violations" 0
    (List.length outcome.Campaign.failures)

(* dial_vs_heap compares two queue disciplines only if both really
   run: every SPT configures its queue, so both selection counters must
   move on a small-cost spec. *)
let test_dial_vs_heap_runs_both_queues () =
  let dial = Rtr_obs.Metrics.counter "pqueue.dial_selected"
  and heap = Rtr_obs.Metrics.counter "pqueue.heap_selected" in
  let value = Rtr_obs.Metrics.Counter.value in
  let d0 = value dial and h0 = value heap in
  (match (oracle "dial_vs_heap").Oracle.run ~inject:None (gen_spec 3) with
  | None -> ()
  | Some v -> Alcotest.failf "dial_vs_heap: %s" v.Oracle.detail);
  Alcotest.(check bool) "dial runs counted" true (value dial > d0);
  Alcotest.(check bool) "heap runs counted" true (value heap > h0)

(* [find] is the only way to reach an oracle by name: each name of
   [all] is unique and finds its own record, in [all]'s order. *)
let test_oracle_registry () =
  let names = List.map (fun o -> o.Oracle.name) Oracle.all in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (o : Oracle.t) ->
      Alcotest.(check bool) ("find " ^ o.Oracle.name) true
        (match Oracle.find o.Oracle.name with Some o' -> o' == o | None -> false))
    Oracle.all;
  Alcotest.(check bool) "unknown name" true (Oracle.find "nope" = None)

let test_corpus_specs_pass_every_oracle () =
  (* Corpus artifacts name one oracle each.  An [expect=pass] spec must
     be green under every oracle; an [expect=violation] spec must trip
     exactly the named oracle (under the recorded injection) and stay
     green under all the others, run clean. *)
  Sys.readdir "corpus" |> Array.to_list |> List.sort compare
  |> List.iter (fun file ->
         let path = Filename.concat "corpus" file in
         let json = Result.get_ok (Campaign.load_file path) in
         let spec =
           Result.get_ok (Spec.of_json (Option.get (Json.member "spec" json)))
         in
         let named =
           match Json.member "oracle" json with
           | Some (Json.String s) -> s
           | _ -> Alcotest.failf "%s: missing oracle name" file
         in
         let expect_violation =
           match Json.member "expect" json with
           | Some (Json.String "violation") -> true
           | _ -> false
         in
         let inject =
           match Json.member "inject" json with
           | Some (Json.String s) -> Oracle.injection_of_string s
           | _ -> None
         in
         List.iter
           (fun (o : Oracle.t) ->
             if expect_violation && o.Oracle.name = named then (
               match o.Oracle.run ~inject spec with
               | Some _ -> ()
               | None ->
                   Alcotest.failf "%s: %s no longer violates" file named)
             else
               match o.Oracle.run ~inject:None spec with
               | None -> ()
               | Some v ->
                   Alcotest.failf "%s: %s: %s" file v.Oracle.oracle
                     v.Oracle.detail)
           Oracle.all)

(* The acceptance gate: a deliberately injected protocol bug (phase 2
   silently forgetting one collected failed link) must be caught,
   shrunk small, and reproduce from its serialised artifact. *)
let test_injected_bug_caught_and_shrunk () =
  let config =
    {
      Campaign.default with
      Campaign.cases = 25;
      seed = 42;
      oracles = [ oracle "optimal" ];
      inject = Some Oracle.Drop_failed_link;
    }
  in
  let outcome = Campaign.run config in
  Alcotest.(check bool) "bug caught" true (outcome.Campaign.failures <> []);
  List.iter
    (fun (c : Campaign.counterexample) ->
      Alcotest.(check bool) "shrunk to at most 12 routers" true
        (c.Campaign.shrunk.Spec.n <= 12);
      Alcotest.(check string) "optimal oracle flagged it" "optimal"
        c.Campaign.violation.Oracle.oracle;
      (* The artifact reproduces: replay re-runs the oracle with the
         recorded injection and sees the violation again. *)
      let artifact =
        Campaign.artifact_json ~oracle:(oracle "optimal")
          ~inject:Oracle.Drop_failed_link ~violation:c.Campaign.violation
          ~expect:`Violation c.Campaign.shrunk
      in
      (match Campaign.replay artifact with
      | Ok (Campaign.Matched (Some _)) -> ()
      | _ -> Alcotest.fail "artifact does not reproduce the violation");
      (* And the shrunk spec is clean without the injection: the bug is
         in the injected fault, not the protocol. *)
      match (oracle "optimal").Oracle.run ~inject:None c.Campaign.shrunk with
      | None -> ()
      | Some v -> Alcotest.failf "clean protocol flagged: %s" v.Oracle.detail)
    outcome.Campaign.failures

(* The static theorem oracles are the (base, base) transition of
   [Episode.measure], so both injections reach them; the Theorem-3
   sweep over the intact topology reads neither. *)
let test_static_oracles_honour_injections () =
  let spec = gen_spec 42 in
  let run name inject = (oracle name).Oracle.run ~inject spec in
  let named name got =
    Alcotest.(check (option string))
      (name ^ " flags its own name") (Some name)
      (Option.map (fun v -> v.Oracle.oracle) got)
  in
  named "no_loop" (run "no_loop" (Some Oracle.Truncate_walk));
  named "optimal" (run "optimal" (Some Oracle.Drop_failed_link));
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " clean without injection") true
        (run name None = None))
    [ "no_loop"; "optimal"; "single_link" ];
  List.iter
    (fun inject ->
      Alcotest.(check bool) "single_link ignores the injection" true
        (run "single_link" (Some inject) = None))
    [ Oracle.Truncate_walk; Oracle.Drop_failed_link ]

let test_campaign_jobs_invariant () =
  let config =
    {
      Campaign.default with
      Campaign.cases = 15;
      seed = 42;
      oracles = [ oracle "optimal" ];
      inject = Some Oracle.Drop_failed_link;
    }
  in
  let a = Campaign.run { config with Campaign.jobs = 1 } in
  let b = Campaign.run { config with Campaign.jobs = 4 } in
  Alcotest.(check int) "same failure count"
    (List.length a.Campaign.failures)
    (List.length b.Campaign.failures);
  List.iter2
    (fun (x : Campaign.counterexample) (y : Campaign.counterexample) ->
      Alcotest.(check int) "same case index" x.Campaign.index y.Campaign.index;
      Alcotest.check spec_t "same shrunk spec" x.Campaign.shrunk
        y.Campaign.shrunk;
      Alcotest.(check string) "same violation detail"
        x.Campaign.violation.Oracle.detail y.Campaign.violation.Oracle.detail)
    a.Campaign.failures b.Campaign.failures

let test_shrink_is_greedy_fixpoint () =
  (* Shrinking an injected counterexample must reach a spec no single
     move can shrink further while still violating. *)
  let spec = gen_spec 42 in
  let check s = (oracle "optimal").Oracle.run ~inject:(Some Oracle.Drop_failed_link) s in
  match check spec with
  | None -> () (* this seed's spec doesn't trip the injection: nothing to shrink *)
  | Some v ->
      let shrunk, v', evals = Shrink.run ~check spec v in
      Alcotest.(check bool) "still violating" true (check shrunk = Some v');
      Alcotest.(check bool) "spent some budget" true (evals > 0);
      Alcotest.(check bool) "not larger than the input" true
        (shrunk.Spec.n <= spec.Spec.n
        && List.length shrunk.Spec.edges <= List.length spec.Spec.edges)

(* --- episode timelines --------------------------------------------- *)

let gen_episode_spec ~kind seed =
  Spec.generate_episodes (Rtr_util.Rng.make seed) ~kind
    ~name:(Printf.sprintf "ep-%d" seed)

let test_episode_json_round_trip () =
  List.iter
    (fun kind ->
      for seed = 0 to 9 do
        let spec = gen_episode_spec ~kind seed in
        Alcotest.(check bool) "has episodes" true (spec.Spec.episodes <> []);
        let rendered = Json.to_string (Spec.to_json spec) in
        match Result.bind (Json.parse rendered) Spec.of_json with
        | Error msg -> Alcotest.failf "seed %d: %s" seed msg
        | Ok spec' -> Alcotest.check spec_t "round-trips" spec spec'
      done)
    [ `Cascading; `Transient; `Moving ];
  (* Episode-free specs keep their original serialisation: the field is
     simply absent, so every pre-episode artifact stays byte-stable. *)
  let static = gen_spec 3 in
  Alcotest.(check bool) "no episodes field on static specs" true
    (Json.member "episodes" (Spec.to_json static) = None)

let test_episode_shrink_moves () =
  let base = gen_spec 5 in
  let flap =
    { base with Spec.episodes = [ Spec.Flap { at = 0.; up_at = 0.4; links = [ (0, 1) ] } ] }
  in
  (match Spec.drop_episode flap 0 with
  | Some s -> Alcotest.(check bool) "episode dropped" true (s.Spec.episodes = [])
  | None -> Alcotest.fail "drop_episode 0 must apply");
  Alcotest.(check bool) "drop_episode out of range" true
    (Spec.drop_episode flap 1 = None);
  Alcotest.(check bool) "drop_episode on static" true
    (Spec.drop_episode base 0 = None);
  (match Spec.shorten_timer flap 0 with
  | Some s -> (
      match s.Spec.episodes with
      | [ Spec.Flap { up_at; _ } ] ->
          Alcotest.(check (float 1e-9)) "flap window halved" 0.2 up_at
      | _ -> Alcotest.fail "episode shape changed")
  | None -> Alcotest.fail "shorten_timer must apply");
  let two_cascades =
    {
      base with
      Spec.episodes =
        [
          Spec.Cascade
            { at = 0.1; failure = Spec.Explicit { nodes = []; links = [ (0, 1) ] } };
          Spec.Cascade
            { at = 0.3; failure = Spec.Explicit { nodes = [ 2 ]; links = [] } };
        ];
    }
  in
  match Spec.merge_episodes two_cascades 0 with
  | None -> Alcotest.fail "merge_episodes must apply"
  | Some s -> (
      match s.Spec.episodes with
      | [ Spec.Cascade { at; failure = Spec.Explicit { nodes; links } } ] ->
          Alcotest.(check (float 1e-9)) "merged at the earlier time" 0.1 at;
          Alcotest.(check (list int)) "nodes unioned" [ 2 ] nodes;
          Alcotest.(check bool) "links unioned" true (links = [ (0, 1) ])
      | _ -> Alcotest.fail "merge did not produce one explicit cascade")

let test_episode_oracles_skip_static_specs () =
  let static = gen_spec 11 in
  List.iter
    (fun (o : Oracle.t) ->
      Alcotest.(check bool) (o.Oracle.name ^ " skips static") true
        (o.Oracle.run ~inject:None static = None))
    (List.map oracle
       [ "episode_no_loop"; "episode_optimal"; "episode_single_link" ])

let all_kinds =
  Oracle.Episode.[ Static; Cascading; Transient; Moving ]

let test_episode_matrix_clean () =
  let module E = Oracle.Episode in
  let config = { Campaign.default with Campaign.cases = 5; seed = 7; jobs = 2 } in
  let outcome, rows = Campaign.run_episodes config ~kinds:all_kinds in
  Alcotest.(check int) "all specs ran" 20 outcome.Campaign.cases_run;
  Alcotest.(check int) "no hard violations" 0
    (List.length outcome.Campaign.failures);
  Alcotest.(check int) "one row per kind" 4 (List.length rows);
  List.iter2
    (fun kind (r : Campaign.survival_row) ->
      Alcotest.(check bool)
        ("row order: " ^ E.kind_to_string kind)
        true (r.Campaign.row_kind = kind);
      Alcotest.(check int) "five specs" 5 r.Campaign.specs;
      Alcotest.(check int) "theorem 1 survives" 0 r.Campaign.thm1.Campaign.violations;
      Alcotest.(check int) "theorem 3 survives" 0 r.Campaign.thm3.Campaign.violations;
      Alcotest.(check bool) "sessions ran" true (r.Campaign.sessions > 0))
    all_kinds rows;
  let static = List.hd rows in
  Alcotest.(check int) "static row is the plain theorem 2" 0
    static.Campaign.thm2.Campaign.violations;
  Alcotest.(check int) "static specs have one transition each" 5
    static.Campaign.transitions

let test_episode_matrix_jobs_invariant () =
  let config = { Campaign.default with Campaign.cases = 4; seed = 42 } in
  let run jobs =
    snd (Campaign.run_episodes { config with Campaign.jobs } ~kinds:all_kinds)
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check bool) "identical survival rows" true (a = b)

let test_episode_injected_bug_caught () =
  (* Truncating the collection walk must surface as episode_no_loop
     hard violations — the matrix is a working alarm, not a report. *)
  let config =
    {
      Campaign.default with
      Campaign.cases = 6;
      seed = 7;
      inject = Some Oracle.Truncate_walk;
    }
  in
  let outcome, _ =
    Campaign.run_episodes config ~kinds:Oracle.Episode.[ Cascading; Transient ]
  in
  Alcotest.(check bool) "bug caught" true (outcome.Campaign.failures <> []);
  List.iter
    (fun (c : Campaign.counterexample) ->
      Alcotest.(check string) "flagged by the episode loop oracle"
        "episode_no_loop" c.Campaign.violation.Oracle.oracle)
    outcome.Campaign.failures

let test_episode_shrink_fixpoint () =
  (* Shrinking must work on the episode axis too: find a spec whose
     timeline trips the theorem-2 relaxation, shrink it, and land on a
     violating spec that is no larger on any axis. *)
  let check s = (oracle "episode_optimal").Oracle.run ~inject:None s in
  let rec find seed =
    if seed > 40 then Alcotest.fail "no violating cascading spec found"
    else
      let spec = gen_episode_spec ~kind:`Cascading seed in
      match check spec with Some v -> (spec, v) | None -> find (seed + 1)
  in
  let spec, v = find 0 in
  let shrunk, v', evals = Shrink.run ~check spec v in
  Alcotest.(check bool) "still violating" true (check shrunk = Some v');
  Alcotest.(check bool) "spent some budget" true (evals > 0);
  Alcotest.(check bool) "episodes kept (else it could not violate)" true
    (shrunk.Spec.episodes <> []);
  Alcotest.(check bool) "not larger on any axis" true
    (shrunk.Spec.n <= spec.Spec.n
    && List.length shrunk.Spec.edges <= List.length spec.Spec.edges
    && List.length shrunk.Spec.episodes <= List.length spec.Spec.episodes)

let suite =
  [
    Alcotest.test_case "spec JSON round-trip" `Quick test_json_round_trip;
    Alcotest.test_case "spec of_json rejects junk" `Quick test_of_json_rejects;
    Alcotest.test_case "spec of_json rejects hostile specs" `Quick
      test_of_json_rejects_hostile;
    Alcotest.test_case "shrinking moves" `Quick test_shrink_moves;
    Alcotest.test_case "oracles pass on the protocol" `Quick
      test_oracles_pass_on_protocol;
    Alcotest.test_case "dial_vs_heap runs both queues" `Quick
      test_dial_vs_heap_runs_both_queues;
    Alcotest.test_case "oracle registry" `Quick test_oracle_registry;
    Alcotest.test_case "corpus passes every oracle" `Quick
      test_corpus_specs_pass_every_oracle;
    Alcotest.test_case "injected bug caught, shrunk, reproduced" `Quick
      test_injected_bug_caught_and_shrunk;
    Alcotest.test_case "static theorem oracles honour both injections" `Quick
      test_static_oracles_honour_injections;
    Alcotest.test_case "campaign independent of jobs" `Quick
      test_campaign_jobs_invariant;
    Alcotest.test_case "shrink reaches a violating fixpoint" `Quick
      test_shrink_is_greedy_fixpoint;
    Alcotest.test_case "episode spec JSON round-trip" `Quick
      test_episode_json_round_trip;
    Alcotest.test_case "episode shrinking moves" `Quick
      test_episode_shrink_moves;
    Alcotest.test_case "episode oracles skip static specs" `Quick
      test_episode_oracles_skip_static_specs;
    Alcotest.test_case "episode matrix clean on the protocol" `Quick
      test_episode_matrix_clean;
    Alcotest.test_case "episode matrix independent of jobs" `Quick
      test_episode_matrix_jobs_invariant;
    Alcotest.test_case "episode injected bug caught" `Quick
      test_episode_injected_bug_caught;
    Alcotest.test_case "episode shrink reaches a violating fixpoint" `Quick
      test_episode_shrink_fixpoint;
  ]
