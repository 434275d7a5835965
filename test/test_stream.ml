module Experiments = Rtr_sim.Experiments
module Pipeline = Rtr_sim.Pipeline
module Stream = Rtr_sim.Stream
module Shard_store = Rtr_sim.Shard_store
module Report = Rtr_sim.Report
module Metrics = Rtr_obs.Metrics
module Isp = Rtr_topo.Isp

(* Same fixture as Test_experiments: 120 cases on the two smallest
   ASes, sequential. *)
let config =
  lazy
    {
      Experiments.presets =
        [ Option.get (Isp.find "AS1239"); Option.get (Isp.find "AS4323") ];
      recoverable_per_topo = 120;
      irrecoverable_per_topo = 120;
      seed = 3;
      mrc_k = None;
      jobs = 1;
    }

let generated =
  lazy
    (let c = Lazy.force config in
     Pipeline.generate ~presets:c.Experiments.presets
       ~rec_quota:c.Experiments.recoverable_per_topo
       ~irr_quota:c.Experiments.irrecoverable_per_topo ~seed:c.Experiments.seed
       ~mrc_k:c.Experiments.mrc_k ())

(* One in-process evaluation of the generated records, shared by the
   codec tests. *)
let evaluated =
  lazy
    (let header, records = Lazy.force generated in
     let remaining = ref records in
     let next () =
       match !remaining with
       | [] -> None
       | r :: rest ->
           remaining := rest;
           Some r
     in
     let out = ref [] in
     let _mrc =
       Pipeline.evaluate ~jobs:1 ~header ~next
         ~emit:(fun r -> out := r :: !out)
         ()
     in
     List.rev !out)

(* --- temp dirs ------------------------------------------------------- *)

let with_tmpdir f =
  let dir = Filename.temp_file "rtr_test_stream" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let cleanup () =
    Array.iter
      (fun name -> Sys.remove (Filename.concat dir name))
      (Sys.readdir dir);
    Sys.rmdir dir
  in
  Fun.protect ~finally:cleanup (fun () -> f dir)

(* [Stream.open_reader] for a stream the test wrote itself: any decode
   error fails the test. *)
let open_stream path =
  match Stream.open_reader path with
  | Error e -> Alcotest.fail e
  | Ok (header, pull) ->
      let next () =
        match pull () with
        | None -> None
        | Some (Ok r) -> Some r
        | Some (Error e) -> Alcotest.fail e
      in
      (header, next)

(* Evaluate one shard of a stream file into a shard file, exactly as
   [bin/rtr_sim evaluate] does. *)
let evaluate_shard ~stream_path ~path ~resume ~shard ~shards =
  let header, next = open_stream stream_path in
  match
    Shard_store.open_writer ~path ~resume ~shard ~shards
      ~count:header.Stream.count
  with
  | Shard_store.Complete -> ()
  | Shard_store.Writer (w, committed) ->
      let rec filtered () =
        match next () with
        | None -> None
        | Some r
          when r.Stream.seq mod shards = shard && not (committed r.Stream.seq)
          ->
            Some r
        | Some _ -> filtered ()
      in
      let mrc =
        Pipeline.evaluate ~jobs:1 ~header ~next:filtered
          ~emit:(Shard_store.append w) ()
      in
      Shard_store.finish w ~mrc

(* --- codec round-trips ---------------------------------------------- *)

let test_header_roundtrip () =
  let header, _ = Lazy.force generated in
  (match Stream.parse_header (Stream.header_line header) with
  | Ok h -> Alcotest.(check bool) "header round-trips" true (h = header)
  | Error e -> Alcotest.fail ("header did not parse: " ^ e));
  Alcotest.(check bool) "count covers all topo records" true
    (header.Stream.count
    = List.fold_left
        (fun acc (s : Stream.topo_stat) -> acc + s.Stream.records)
        0 header.Stream.topos)

let test_scenario_roundtrip () =
  let _, records = Lazy.force generated in
  Alcotest.(check bool) "records present" true (records <> []);
  List.iter
    (fun (r : Stream.scenario) ->
      match Stream.parse_scenario (Stream.scenario_line r) with
      | Error e -> Alcotest.fail ("scenario did not parse: " ^ e)
      | Ok d ->
          (* The area is informational (evaluation reruns from the
             failed node/link sets), so it round-trips to printed
             precision; everything the evaluation consumes is exact. *)
          let exact x = { x with Stream.area = (0.0, 0.0, 0.0) } in
          Alcotest.(check bool)
            (Printf.sprintf "seq %d integer payload exact" r.Stream.seq)
            true
            (exact d = exact r);
          let dx, dy, dr = d.Stream.area and x, y, rad = r.Stream.area in
          List.iter2
            (fun a b ->
              Alcotest.(check bool) "area to printed precision" true
                (Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs b)))
            [ dx; dy; dr ] [ x; y; rad ])
    records

let test_result_roundtrip () =
  let results = Lazy.force evaluated in
  Alcotest.(check bool) "results present" true (results <> []);
  List.iter
    (fun (r : Stream.result) ->
      match Stream.parse_result (Stream.result_line r) with
      | Error e -> Alcotest.fail ("result did not parse: " ^ e)
      | Ok d ->
          (* Bit-exact, floats included: the stretches are reconstructed
             from the integer cost numerators by the same function the
             runner derived them with. *)
          Alcotest.(check bool)
            (Printf.sprintf "seq %d round-trips exactly" r.Stream.rseq)
            true (d = r))
    results

(* --- episode records and stream versioning --------------------------- *)

(* Tiny synthetic fixtures: the codec is plain data, no topology
   needed. *)
let tiny_header =
  {
    Stream.seed = 1;
    mrc_k = None;
    rec_quota = 1;
    irr_quota = 0;
    topos =
      [ { Stream.as_name = "tiny"; areas = 1; rec_cases = 1; irr_cases = 0; records = 1 } ];
    count = 1;
  }

let tiny_record ~episodes =
  {
    Stream.seq = 0;
    topo = 0;
    area = (1.0, 2.0, 3.0);
    failed_nodes = [ 1 ];
    failed_links = [ 0; 2 ];
    episodes;
    cases =
      [
        {
          Rtr_sim.Scenario.initiator = 0;
          trigger = 1;
          dst = 2;
          kind = Rtr_sim.Scenario.Recoverable;
          shortest_after = Some 7;
        };
      ];
  }

let tiny_episodes =
  [
    {
      Rtr_sim.Scenario.at_cs = 25;
      fail_nodes = [ 1; 2 ];
      fail_links = [ 0 ];
      restore_nodes = [];
      restore_links = [ 3; 4 ];
    };
    {
      Rtr_sim.Scenario.at_cs = 75;
      fail_nodes = [];
      fail_links = [];
      restore_nodes = [ 1 ];
      restore_links = [ 0 ];
    };
  ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_episode_record_roundtrip () =
  (* Episodes are integer-only, so the round-trip is exact — including
     empty halves and multiple events per record. *)
  let r = tiny_record ~episodes:tiny_episodes in
  match Stream.parse_scenario (Stream.scenario_line r) with
  | Error e -> Alcotest.fail ("episode record did not parse: " ^ e)
  | Ok d -> Alcotest.(check bool) "round-trips exactly" true (d = r)

let test_v1_stream_bit_identical () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "s.jsonl" in
  (* Episode-free records write the v1 format, byte for byte: no "ep"
     key, no version bump — a pre-episode reader still accepts the
     file and old streams hash identically. *)
  let plain = tiny_record ~episodes:[] in
  Stream.write path tiny_header [ plain ];
  let content = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string) "byte-identical to a v1 writer"
    (Stream.header_line tiny_header ^ "\n" ^ Stream.scenario_line plain ^ "\n")
    content;
  Alcotest.(check bool) "tagged rtr-stream/1" true
    (contains content "\"rtr-stream/1\"");
  Alcotest.(check bool) "no ep key on episode-free records" true
    (not (contains content "\"ep\""));
  let h, next = open_stream path in
  Alcotest.(check bool) "v1 header decodes" true (h = tiny_header);
  (match next () with
  | Some d ->
      Alcotest.(check bool) "v1 record decodes with no episodes" true
        (d = plain && d.Stream.episodes = [])
  | None -> Alcotest.fail "record missing");
  ignore (next ());
  (* Any record carrying episodes promotes the whole stream to v2. *)
  let with_ep = tiny_record ~episodes:tiny_episodes in
  Stream.write path tiny_header [ with_ep ];
  let v2 = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string) "v2 header emitted"
    (Stream.header_line ~format:Stream.format_stream_v2 tiny_header
    ^ "\n"
    ^ Stream.scenario_line with_ep
    ^ "\n")
    v2;
  let h2, next2 = open_stream path in
  Alcotest.(check bool) "v2 header decodes" true (h2 = tiny_header);
  (match next2 () with
  | Some d -> Alcotest.(check bool) "episodes survive the file" true (d = with_ep)
  | None -> Alcotest.fail "record missing");
  ignore (next2 ())

let replace_first ~sub ~by s =
  let n = String.length s and m = String.length sub in
  let rec find i =
    if i + m > n then invalid_arg "replace_first"
    else if String.sub s i m = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)

(* Hostile files: every way a stream can be broken comes back as a
   typed [Error] naming the file, never an exception. *)
let test_hostile_headers () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "hostile.jsonl" in
  let header = Stream.header_line tiny_header in
  let record = Stream.scenario_line (tiny_record ~episodes:[]) in
  let expect_error what content =
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc content);
    (match Stream.read_header path with
    | Ok _ -> Alcotest.failf "read_header accepted %s" what
    | Error e ->
        Alcotest.(check bool) (what ^ ": error names the file") true
          (contains e path));
    match Stream.open_reader path with
    | Ok _ -> Alcotest.failf "open_reader accepted %s" what
    | Error _ -> ()
  in
  expect_error "an empty file" "";
  expect_error "garbage" "garbage\n";
  expect_error "a truncated header"
    (String.sub header 0 (String.length header / 2));
  expect_error "binary bytes" "\000\255\254{\n";
  expect_error "a record in the header's place" (record ^ "\n");
  expect_error "an unknown format tag"
    (replace_first ~sub:"rtr-stream/1" ~by:"rtr-stream/9" header ^ "\n");
  (match Stream.read_header (Filename.concat dir "missing.jsonl") with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error _ -> ());
  match Stream.open_reader dir with
  | Ok _ -> Alcotest.fail "a directory accepted as a stream"
  | Error _ -> ()

let test_hostile_records () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "hostile.jsonl" in
  let header = Stream.header_line tiny_header in
  let record = Stream.scenario_line (tiny_record ~episodes:[]) in
  List.iter
    (fun (what, bad) ->
      Out_channel.with_open_bin path (fun oc ->
          List.iter
            (fun l -> Out_channel.output_string oc (l ^ "\n"))
            [ header; record; bad; record ]);
      match Stream.open_reader path with
      | Error e -> Alcotest.failf "%s: header rejected: %s" what e
      | Ok (_, pull) -> (
          (match pull () with
          | Some (Ok _) -> ()
          | _ -> Alcotest.failf "%s: the good first record is lost" what);
          (match pull () with
          | Some (Error e) ->
              Alcotest.(check bool) (what ^ ": error names the file") true
                (contains e path)
          | Some (Ok _) -> Alcotest.failf "%s: accepted" what
          | None -> Alcotest.failf "%s: stream ended silently" what);
          match pull () with
          | None -> ()
          | Some _ -> Alcotest.failf "%s: reading went on past the error" what))
    [
      ("a truncated record", String.sub record 0 (String.length record / 2));
      ("garbage", "{\"seq\": 1, \"bogus\"");
      ("the header again", header);
      ("an empty line", "");
      ( "a record missing its cases",
        replace_first ~sub:"\"cases\"" ~by:"\"xases\"" record );
    ]

(* --- the staged file pipeline vs the in-memory collectors ----------- *)

let check_same_data label (a : Experiments.topo_data list)
    (b : Experiments.topo_data list) =
  Alcotest.(check int) (label ^ ": topology count") (List.length a)
    (List.length b);
  List.iter2
    (fun (x : Experiments.topo_data) (y : Experiments.topo_data) ->
      Alcotest.(check string)
        (label ^ ": preset")
        x.Experiments.preset.Isp.as_name y.Experiments.preset.Isp.as_name;
      Alcotest.(check int)
        (label ^ ": mrc configs")
        x.Experiments.mrc_configs y.Experiments.mrc_configs;
      Alcotest.(check bool)
        (label ^ ": recoverable identical")
        true
        (x.Experiments.recoverable = y.Experiments.recoverable);
      Alcotest.(check bool)
        (label ^ ": irrecoverable identical")
        true
        (x.Experiments.irrecoverable = y.Experiments.irrecoverable))
    a b

let test_file_pipeline_matches_collect () =
  let c = Lazy.force config in
  let header, records = Lazy.force generated in
  with_tmpdir @@ fun dir ->
  let stream_path = Filename.concat dir "scenarios.jsonl" in
  let shard_path i = Filename.concat dir (Printf.sprintf "shard%d.jsonl" i) in
  Stream.write stream_path header records;
  (* The written stream re-reads to the same header and records. *)
  Alcotest.(check bool) "header survives the file" true
    (Stream.read_header stream_path = Ok header);
  evaluate_shard ~stream_path ~path:(shard_path 0) ~resume:false ~shard:0
    ~shards:2;
  evaluate_shard ~stream_path ~path:(shard_path 1) ~resume:false ~shard:1
    ~shards:2;
  let from_files =
    Experiments.reduce_shards ~header
      [ Shard_store.load (shard_path 0); Shard_store.load (shard_path 1) ]
  in
  check_same_data "files vs collect" from_files (Experiments.collect c)

(* --- crash and resume ------------------------------------------------ *)

(* Chop the shard's footer and half of its last record, leaving an
   unterminated torn tail — the footprint of a writer killed mid
   [append]. *)
let kill_tail path =
  let content = In_channel.with_open_text path In_channel.input_all in
  let lines =
    match List.rev (String.split_on_char '\n' content) with
    | "" :: rev -> List.rev rev
    | rev -> List.rev rev
  in
  match List.rev lines with
  | _footer :: last :: keep_rev ->
      let oc = open_out path in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        (List.rev keep_rev);
      output_string oc (String.sub last 0 (min 50 (String.length last)));
      close_out oc
  | _ -> Alcotest.fail "shard too short to truncate"

let counter_of snap name =
  Option.value ~default:0 (Metrics.Snapshot.counter snap name)

let test_crash_resume () =
  let header, records = Lazy.force generated in
  with_tmpdir @@ fun dir ->
  let stream_path = Filename.concat dir "scenarios.jsonl" in
  let shard_path i = Filename.concat dir (Printf.sprintf "shard%d.jsonl" i) in
  Stream.write stream_path header records;
  evaluate_shard ~stream_path ~path:(shard_path 0) ~resume:false ~shard:0
    ~shards:2;
  evaluate_shard ~stream_path ~path:(shard_path 1) ~resume:false ~shard:1
    ~shards:2;
  let uninterrupted =
    Experiments.reduce_shards ~header
      [ Shard_store.load (shard_path 0); Shard_store.load (shard_path 1) ]
  in
  let intact_records = (Shard_store.load (shard_path 0)).Shard_store.results in
  (* Kill shard 0 mid-record. *)
  kill_tail (shard_path 0);
  (* The loader refuses the torn shard outright. *)
  (match Shard_store.load (shard_path 0) with
  | _ -> Alcotest.fail "loader accepted a torn shard"
  | exception Failure _ -> ());
  (* Resume: the torn tail is dropped, committed records are kept, and
     only the missing work re-runs. *)
  let before = Metrics.snapshot () in
  evaluate_shard ~stream_path ~path:(shard_path 0) ~resume:true ~shard:0
    ~shards:2;
  let after = Metrics.snapshot () in
  Alcotest.(check int) "one torn tail truncated" 1
    (counter_of after "checkpoint.torn_tail"
    - counter_of before "checkpoint.torn_tail");
  Alcotest.(check int) "one shard resumed" 1
    (counter_of after "checkpoint.resumed"
    - counter_of before "checkpoint.resumed");
  Alcotest.(check int) "only the killed record re-ran" 1
    (counter_of after "checkpoint.commits"
    - counter_of before "checkpoint.commits");
  let resumed = Shard_store.load (shard_path 0) in
  Alcotest.(check int) "record count restored"
    (List.length intact_records)
    (List.length resumed.Shard_store.results);
  let recovered =
    Experiments.reduce_shards ~header
      [ resumed; Shard_store.load (shard_path 1) ]
  in
  check_same_data "resumed vs uninterrupted" recovered uninterrupted;
  (* The rendered report is byte-identical too. *)
  Alcotest.(check string) "table3 bytes"
    (Report.render_table (Experiments.table3 uninterrupted))
    (Report.render_table (Experiments.table3 recovered));
  (* Resuming a complete shard is a no-op. *)
  match
    Shard_store.open_writer ~path:(shard_path 0) ~resume:true ~shard:0
      ~shards:2 ~count:header.Stream.count
  with
  | Shard_store.Complete -> ()
  | Shard_store.Writer _ -> Alcotest.fail "complete shard reopened as writer"

let suite =
  [
    Alcotest.test_case "episode record round-trip" `Quick
      test_episode_record_roundtrip;
    Alcotest.test_case "v1 streams stay bit-identical" `Quick
      test_v1_stream_bit_identical;
    Alcotest.test_case "hostile headers are typed errors" `Quick
      test_hostile_headers;
    Alcotest.test_case "hostile records are typed errors" `Quick
      test_hostile_records;
    Alcotest.test_case "header round-trip" `Slow test_header_roundtrip;
    Alcotest.test_case "scenario round-trip" `Slow test_scenario_roundtrip;
    Alcotest.test_case "result round-trip" `Slow test_result_roundtrip;
    Alcotest.test_case "file pipeline = collect" `Slow
      test_file_pipeline_matches_collect;
    Alcotest.test_case "crash, resume, identical report" `Slow
      test_crash_resume;
  ]
