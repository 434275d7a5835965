module Json = Rtr_obs.Json
module Metrics = Rtr_obs.Metrics
module Trace = Rtr_obs.Trace
module Netsim = Rtr_des.Netsim
module Damage = Rtr_failure.Damage

(* --- json ----------------------------------------------------------- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\nd\tcontrol:\001");
        ("i", Json.Int (-42));
        ("f", Json.Float 2.5);
        ("nan", Json.Float Float.nan);
        ("arr", Json.Arr [ Json.Null; Json.Bool true; Json.Bool false ]);
        ("empty_obj", Json.Obj []);
        ("empty_arr", Json.Arr []);
      ]
  in
  match Json.parse (Json.to_string doc) with
  | Error msg -> Alcotest.failf "own output did not parse: %s" msg
  | Ok parsed ->
      Alcotest.(check string)
        "string field survives escaping"
        "a\"b\\c\nd\tcontrol:\001"
        (match Json.member "s" parsed with
        | Some (Json.String s) -> s
        | _ -> "<missing>");
      Alcotest.(check bool)
        "int field" true
        (Json.member "i" parsed = Some (Json.Int (-42)));
      (* Non-finite floats must degrade to null, keeping output valid. *)
      Alcotest.(check bool)
        "nan became null" true
        (Json.member "nan" parsed = Some Json.Null)

let test_json_rejects_malformed () =
  let bad = [ "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "" ] in
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" s
      | Error _ -> ())
    bad

(* Real codec lines: a stream header, a scenario record, a result
   record (its first two rows) and a shard footer. *)
let codec_lines =
  [
    {|{"format":"rtr-stream/1","seed":7,"mrc_k":null,"rec_quota":4,"irr_quota":4,"count":1,"topos":[{"as":"AS1239","areas":1,"rec":4,"irr":4,"records":1}]}|};
    {|{"seq":0,"topo":0,"area":[570.88494032,207.576429682,184.810634846],"nodes":[0,19,32],"links":[2,6,25,28,43,55,64,66,79],"cases":[[4,0,0,1,null],[9,32,19,1,null],[9,32,32,1,null],[9,32,44,1,null],[17,37,3,0,5],[17,37,4,0,7],[17,37,6,0,7],[17,37,9,0,5]]}|};
    {|{"seq":0,"topo":0,"r":[[[4,0,0,1,null],2,[5,13],true,false,null,0,0,1,false,null,2,[6],1006,false,null],[[17,37,3,0,5],57,[7,7,9,11,13,19,21,23,25],true,true,5,11,0,1,true,5,1,[12,10,8,6,4],5040,false,null]]}|};
    {|{"format":"rtr-shard-footer/1","records":1,"mrc":{"AS1239":4},"complete":true}|};
  ]

(* Numbers at the edges of the in-place integer scan, literals, and
   escapes, with the value each decodes to. *)
let number_edges =
  [
    ("0", Ok (Json.Int 0));
    ("-0", Ok (Json.Int 0));
    ("007", Ok (Json.Int 7));
    ("-007", Ok (Json.Int (-7)));
    ("+5", Error "offset 0: unexpected '+'");
    ("[+1]", Error "offset 1: unexpected '+'");
    ("-00", Ok (Json.Int 0));
    ("123456789012345678", Ok (Json.Int 123456789012345678));
    ("-123456789012345678", Ok (Json.Int (-123456789012345678)));
    ("1234567890123456789", Ok (Json.Int 1234567890123456789));
    ("9999999999999999999", Ok (Json.Float 9999999999999999999.));
    ("4611686018427387903", Ok (Json.Int max_int));
    ("4611686018427387904", Ok (Json.Float 4611686018427387904.));
    ("-4611686018427387904", Ok (Json.Int min_int));
    ("-4611686018427387905", Ok (Json.Float (-4611686018427387905.)));
    ("1e5", Ok (Json.Float 1e5));
    ("1E+2", Ok (Json.Float 100.));
    ("-1.5e-3", Ok (Json.Float (-1.5e-3)));
    ("1.5", Ok (Json.Float 1.5));
    ("5.", Ok (Json.Float 5.));
    ("[-3,12]", Ok (Json.Arr [ Json.Int (-3); Json.Int 12 ]));
    ({|{"a":-1}|}, Ok (Json.Obj [ ("a", Json.Int (-1)) ]));
    (" 12 ", Ok (Json.Int 12));
    ("-", Error "offset 1: bad number \"-\"");
    ("--1", Error "offset 3: bad number \"--1\"");
    ("1-2", Error "offset 3: bad number \"1-2\"");
    ("1e", Error "offset 2: bad number \"1e\"");
    ("-a", Error "offset 1: bad number \"-\"");
    ("-inf", Error "offset 1: bad number \"-\"");
    (".5", Error "offset 0: unexpected '.'");
    ("0x10", Error "offset 1: trailing garbage");
    ("12abc", Error "offset 2: trailing garbage");
    ("[1,-]", Error "offset 4: bad number \"-\"");
    ("nul", Error "offset 0: expected null");
    ("nulll", Error "offset 4: trailing garbage");
    ("truex", Error "offset 4: trailing garbage");
    ("fals", Error "offset 0: expected false");
    ({|"aéb"|}, Ok (Json.String "a\xc3\xa9b"));
    ({|"a\qb"|}, Error "offset 4: bad escape");
    ("\"a\001\"", Error "offset 3: control character in string");
    ({|"abc|}, Error "offset 4: unterminated string");
  ]

let render_outcome = function
  | Ok v -> "ok " ^ Json.to_string v
  | Error msg -> "error " ^ msg

(* Every codec line flipped (to a random byte, and to a random byte of
   JSON syntax), truncated and spliced at every third byte.  The flips
   come from a fixed-seed generator, so the corpus is the same on every
   run. *)
let parse_corpus () =
  let syntax = {|0123456789-+.eE"\{}[],: ntf|} in
  let state = ref 0x2545F491 in
  let next_byte () =
    state := (!state * 1103515245 + 12345) land 0x3fffffff;
    (!state lsr 16) land 0xff
  in
  let out = ref [] in
  let add s = out := s :: !out in
  let lines = Array.of_list codec_lines in
  Array.iteri
    (fun li line ->
      add line;
      let other = lines.((li + 1) mod Array.length lines) in
      let n = String.length line in
      let i = ref 0 in
      while !i < n do
        let flip c =
          let b = Bytes.of_string line in
          Bytes.set b !i c;
          add (Bytes.to_string b)
        in
        flip (Char.chr (next_byte ()));
        flip syntax.[next_byte () mod String.length syntax];
        add (String.sub line 0 !i);
        let j = !i mod String.length other in
        add
          (String.sub line 0 !i ^ String.sub other j (String.length other - j));
        i := !i + 3
      done)
    lines;
  List.iter (fun (s, _) -> add s) number_edges;
  List.rev !out

let test_json_parse_outcomes_pinned () =
  List.iter
    (fun (s, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "parse %S" s)
        (render_outcome expected)
        (render_outcome (Json.parse s));
      Alcotest.(check bool)
        (Printf.sprintf "parse %S value" s)
        true
        (Json.parse s = expected))
    number_edges;
  let corpus = parse_corpus () in
  let rendered =
    String.concat "\n"
      (List.map (fun s -> render_outcome (Json.parse s)) corpus)
  in
  Alcotest.(check int) "corpus size" 969 (List.length corpus);
  Alcotest.(check string) "parse-outcome digest" "4dbd3b8c2d3670a4"
    (Rtr_rmap.Compile.fnv64_hex rendered)

(* [to_buffer] writes integers digit by digit; the bytes must stay
   [string_of_int]'s at every digit-count boundary and at both ends of
   the range, where [min_int] has no positive counterpart. *)
let test_json_int_printing () =
  let rec boundaries k p acc =
    if k > 18 then acc
    else boundaries (k + 1) (p * 10) ((p - 1) :: p :: (p + 1) :: acc)
  in
  let magnitudes = [ 0; 1; 9; 10; 99; 100 ] @ boundaries 1 10 [] in
  List.iter
    (fun i ->
      Alcotest.(check string) (string_of_int i) (string_of_int i)
        (Json.to_string (Json.Int i)))
    (List.concat_map (fun i -> [ i; -i ]) magnitudes
    @ [ max_int; min_int; min_int + 1 ])

(* --- histogram quantiles -------------------------------------------- *)

let test_histogram_quantiles_uniform () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~registry:reg "h" in
  for i = 1 to 1000 do
    Metrics.Histogram.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Metrics.Histogram.count h);
  Alcotest.(check (float 1.0)) "sum" 500500.0 (Metrics.Histogram.sum h);
  let within q expected =
    let got = Metrics.Histogram.quantile h q in
    let rel = Float.abs (got -. expected) /. expected in
    if rel > 0.10 then
      Alcotest.failf "p%.0f: expected ~%.0f, got %.1f" (100. *. q) expected got
  in
  within 0.5 500.0;
  within 0.9 900.0;
  within 0.99 990.0

let test_histogram_constant_and_edges () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~registry:reg "h" in
  for _ = 1 to 50 do
    Metrics.Histogram.observe h 7.0
  done;
  List.iter
    (fun q ->
      let got = Metrics.Histogram.quantile h q in
      if Float.abs (got -. 7.0) > 0.2 then
        Alcotest.failf "constant distribution: q=%.2f gave %f" q got)
    [ 0.0; 0.5; 0.99; 1.0 ];
  (* Zero and negative observations land in the zero bucket. *)
  let z = Metrics.histogram ~registry:reg "z" in
  Metrics.Histogram.observe z 0.0;
  Metrics.Histogram.observe z (-3.0);
  Metrics.Histogram.observe z 100.0;
  Alcotest.(check (float 1e-9)) "median of {-3,0,100} ~ 0" 0.0
    (Metrics.Histogram.quantile z 0.5);
  (* Empty histogram: quantile is nan, json renders null. *)
  let e = Metrics.histogram ~registry:reg "e" in
  Alcotest.(check bool) "empty quantile nan" true
    (Float.is_nan (Metrics.Histogram.quantile e 0.5))

(* Sub-second observations — the pool's worker busy/idle seconds are
   fractions of a second — must land on non-negative bucket keys
   (raw log-bucketing sent them negative) and still quantile within
   the sketch's relative error. *)
let test_histogram_subsecond_buckets () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~registry:reg "busy_s" in
  List.iter (Metrics.Histogram.observe h) [ 1e-9; 4.2e-3; 0.25; 0.9; 12.5 ];
  let got = Metrics.Histogram.quantile h 0.5 in
  if Float.abs (got -. 0.25) /. 0.25 > 0.10 then
    Alcotest.failf "median of sub-second mix: expected ~0.25, got %g" got;
  let p50_small =
    let s = Metrics.histogram ~registry:reg "idle_s" in
    Metrics.Histogram.observe s 0.004;
    Metrics.Histogram.observe s 0.004;
    Metrics.Histogram.observe s 0.004;
    Metrics.Histogram.quantile s 0.5
  in
  if Float.abs (p50_small -. 0.004) /. 0.004 > 0.10 then
    Alcotest.failf "all-sub-second median: expected ~0.004, got %g" p50_small;
  (* No bucket key in the exported snapshot may be negative. *)
  let json = Metrics.Snapshot.to_json (Metrics.snapshot ~registry:reg ()) in
  let rec walk = function
    | Json.Obj fields ->
        List.iter
          (fun (k, v) ->
            if k = "buckets" then
              match v with
              | Json.Arr entries ->
                  List.iter
                    (function
                      | Json.Arr (Json.Int i :: _) ->
                          if i < 0 then
                            Alcotest.failf "negative bucket key %d" i
                      | _ -> ())
                    entries
              | _ -> ()
            else walk v)
          fields
    | Json.Arr items -> List.iter walk items
    | _ -> ()
  in
  walk json

(* --- registry + snapshot merge -------------------------------------- *)

let fill_registry spec =
  let reg = Metrics.create () in
  List.iter
    (fun (name, kind) ->
      match kind with
      | `C n -> Metrics.Counter.add (Metrics.counter ~registry:reg name) n
      | `G v -> Metrics.Gauge.set (Metrics.gauge ~registry:reg name) v
      | `H vs ->
          let h = Metrics.histogram ~registry:reg name in
          List.iter (Metrics.Histogram.observe h) vs)
    spec;
  Metrics.snapshot ~registry:reg ()

let test_snapshot_merge_associative () =
  let a =
    fill_registry
      [ ("c", `C 3); ("g", `G 1.5); ("h", `H [ 1.0; 2.0 ]); ("only_a", `C 7) ]
  in
  let b =
    fill_registry [ ("c", `C 5); ("g", `G 9.0); ("h", `H [ 100.0 ]) ]
  in
  let c =
    fill_registry
      [ ("c", `C 11); ("g", `G 4.0); ("h", `H [ 0.5 ]); ("only_c", `G 2.0) ]
  in
  let open Metrics.Snapshot in
  let left = merge (merge a b) c and right = merge a (merge b c) in
  Alcotest.(check string)
    "associative"
    (Json.to_string (to_json left))
    (Json.to_string (to_json right));
  Alcotest.(check (option int)) "counters add" (Some 19) (counter left "c");
  Alcotest.(check (option (float 1e-9))) "gauges max" (Some 9.0)
    (match Option.bind (Json.member "gauges" (to_json left)) (Json.member "g") with
     | Some (Json.Float g) -> Some g
     | _ -> None);
  Alcotest.(check (option int)) "disjoint names kept" (Some 7)
    (counter left "only_a");
  (* Merging with empty is the identity. *)
  Alcotest.(check string) "empty is neutral"
    (Json.to_string (to_json a))
    (Json.to_string (to_json (merge empty (merge a empty))))

let test_merge_pools_histograms () =
  let a = fill_registry [ ("h", `H (List.init 500 (fun i -> float_of_int (i + 1)))) ] in
  let b =
    fill_registry
      [ ("h", `H (List.init 500 (fun i -> float_of_int (i + 501)))) ]
  in
  let merged = Metrics.Snapshot.merge a b in
  match Metrics.Snapshot.quantile merged "h" 0.5 with
  | None -> Alcotest.fail "histogram lost in merge"
  | Some p50 ->
      if Float.abs (p50 -. 500.0) /. 500.0 > 0.10 then
        Alcotest.failf "pooled median: expected ~500, got %f" p50

let test_kind_mismatch_rejected () =
  let reg = Metrics.create () in
  ignore (Metrics.counter ~registry:reg "m");
  Alcotest.check_raises "re-register as gauge"
    (Invalid_argument "Metrics: \"m\" already registered as a counter")
    (fun () -> ignore (Metrics.gauge ~registry:reg "m"))

(* --- spans ----------------------------------------------------------- *)

let with_sink sink f =
  Trace.set_sink (Some sink);
  Fun.protect ~finally:(fun () -> Trace.set_sink None) f

let with_fake_clock f =
  let t = ref 0.0 in
  Trace.set_clock (fun () ->
      t := !t +. 0.25;
      !t);
  Fun.protect ~finally:(fun () -> Trace.set_clock Unix.gettimeofday) f

let test_disabled_spans_are_noops () =
  Trace.set_sink None;
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  let sink, recorded = Trace.memory_sink () in
  (* Nothing reaches a sink that is not installed, and with_ is
     transparent for values and exceptions. *)
  Alcotest.(check int) "value passes through" 42
    (Trace.with_ "s" (fun () -> 42));
  Trace.event "e";
  Alcotest.check_raises "exception passes through" Exit (fun () ->
      Trace.with_ "s" (fun () -> raise Exit));
  ignore sink;
  Alcotest.(check int) "no records" 0 (List.length (recorded ()))

let test_spans_nest_and_record () =
  let sink, recorded = Trace.memory_sink () in
  with_fake_clock @@ fun () ->
  with_sink sink @@ fun () ->
  let result =
    Trace.with_ "outer" ~attrs:[ ("k", "v") ] (fun () ->
        Trace.with_ "inner" (fun () -> ());
        Trace.event "tick";
        "done")
  in
  Alcotest.(check string) "result" "done" result;
  match recorded () with
  | [
   Trace.Span { name = n1; depth = d1; dur = dur1; _ };
   Trace.Event { name = ne; _ };
   Trace.Span { name = n2; depth = d2; dur = dur2; attrs = a2; _ };
  ] ->
      (* inner closes before outer: emission order is completion order *)
      Alcotest.(check string) "inner name" "inner" n1;
      Alcotest.(check int) "inner depth" 1 d1;
      Alcotest.(check string) "event name" "tick" ne;
      Alcotest.(check string) "outer name" "outer" n2;
      Alcotest.(check int) "outer depth" 0 d2;
      Alcotest.(check bool) "outer attrs kept" true (a2 = [ ("k", "v") ]);
      Alcotest.(check bool) "durations positive" true
        (dur1 > 0.0 && dur2 > dur1)
  | rs -> Alcotest.failf "unexpected records (%d)" (List.length rs)

let test_jsonl_roundtrip () =
  let path = Filename.temp_file "rtr_obs_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let sink = Trace.jsonl_sink oc in
  with_fake_clock (fun () ->
      with_sink sink (fun () ->
          Trace.with_ "alpha" ~attrs:[ ("topo", "AS209") ] (fun () ->
              Trace.with_ "beta" (fun () -> ()));
          Trace.event "ev" ~attrs:[ ("quote", "a\"b") ];
          Trace.flush ()));
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Alcotest.(check int) "three lines" 3 (List.length lines);
  let parsed =
    List.map
      (fun l ->
        match Json.parse l with
        | Ok v -> v
        | Error msg -> Alcotest.failf "line %S not valid JSON: %s" l msg)
      lines
  in
  let types =
    List.map
      (fun v ->
        match Json.member "type" v with
        | Some (Json.String t) -> t
        | _ -> "<none>")
      parsed
  in
  Alcotest.(check (list string))
    "record types" [ "span"; "span"; "event" ] types;
  let beta = List.nth parsed 0 and alpha = List.nth parsed 1 in
  Alcotest.(check bool) "beta nested" true
    (Json.member "depth" beta = Some (Json.Int 1));
  Alcotest.(check bool) "alpha at top level" true
    (Json.member "depth" alpha = Some (Json.Int 0));
  match Json.member "attrs" alpha with
  | Some (Json.Obj [ ("topo", Json.String "AS209") ]) -> ()
  | _ -> Alcotest.fail "alpha attrs wrong"

(* --- end-to-end: netsim counters ------------------------------------ *)

let counter_value name =
  match Metrics.Snapshot.counter (Metrics.snapshot ()) name with
  | Some n -> n
  | None -> Alcotest.failf "counter %S not registered" name

let test_netsim_counters_end_to_end () =
  let topo = Rtr_topo.Paper_example.topology () in
  let g = Rtr_topo.Topology.graph topo in
  let damage =
    Damage.of_failed g
      ~nodes:[ Rtr_topo.Paper_example.failed_router ]
      ~links:(Rtr_topo.Paper_example.cut_links ())
  in
  let v = Rtr_topo.Paper_example.v in
  let flows = [ { Netsim.src = v 7; dst = v 17; rate_pps = 100.0 } ] in
  let config =
    {
      Netsim.igp = Rtr_igp.Igp_config.classic;
      rtr_enabled = true;
      t_fail = 0.5;
      t_end = 4.0;
      flows;
    }
  in
  let before = Metrics.snapshot () in
  let sink, recorded = Trace.memory_sink () in
  let stats = with_sink sink (fun () -> Netsim.run topo damage config) in
  let delta name =
    counter_value name
    - Option.value ~default:0 (Metrics.Snapshot.counter before name)
  in
  (* The global counters must agree exactly with the run's own stats. *)
  Alcotest.(check int) "generated" stats.Netsim.generated
    (delta "netsim.generated");
  Alcotest.(check int) "delivered" stats.Netsim.delivered
    (delta "netsim.delivered");
  Alcotest.(check int) "phase1 packets" stats.Netsim.phase1_packets
    (delta "netsim.phase1_packets");
  let blackholes =
    Option.value ~default:0
      (List.assoc_opt Netsim.Blackhole stats.Netsim.drops_by_reason)
  in
  Alcotest.(check int) "blackhole drops" blackholes
    (delta "netsim.drop.blackhole");
  Alcotest.(check bool) "events processed" true (delta "netsim.events" > 0);
  (* Every drop reason is pre-registered even when it never fired. *)
  List.iter
    (fun name -> ignore (counter_value name))
    [
      "netsim.drop.blackhole";
      "netsim.drop.no_route";
      "netsim.drop.unreachable_in_view";
      "netsim.drop.missed_failure";
      "netsim.drop.recovery_impossible";
      "netsim.drop.ttl_expired";
    ];
  (* The run produced a netsim.run span on the installed sink. *)
  let spans =
    List.filter
      (function
        | Trace.Span { name; _ } -> name = "netsim.run" | _ -> false)
      (recorded ())
  in
  Alcotest.(check int) "one netsim.run span" 1 (List.length spans)

let test_phase1_counters_flow () =
  let topo = Rtr_topo.Paper_example.topology () in
  let g = Rtr_topo.Topology.graph topo in
  let damage =
    Damage.of_failed g
      ~nodes:[ Rtr_topo.Paper_example.failed_router ]
      ~links:(Rtr_topo.Paper_example.cut_links ())
  in
  let before = Metrics.snapshot () in
  let p1 =
    Rtr_core.Phase1.run topo damage ~initiator:Rtr_topo.Paper_example.initiator
      ~trigger:Rtr_topo.Paper_example.trigger ()
  in
  let delta name =
    counter_value name
    - Option.value ~default:0 (Metrics.Snapshot.counter before name)
  in
  Alcotest.(check int) "one run" 1 (delta "phase1.runs");
  Alcotest.(check int) "hops attributed" p1.Rtr_core.Phase1.hops
    (delta "phase1.hops_walked")

(* --- run manifest ----------------------------------------------------- *)

let test_manifest_provenance () =
  let j = Rtr_obs.Manifest.to_json (Rtr_obs.Manifest.make ~seed:3 ()) in
  (match Json.member "cores" j with
  | Some (Json.Int n) ->
      Alcotest.(check int) "cores" (Domain.recommended_domain_count ()) n
  | _ -> Alcotest.fail "manifest has no integer cores");
  (match Json.member "ocaml" j with
  | Some (Json.String v) ->
      Alcotest.(check string) "ocaml" Sys.ocaml_version v
  | _ -> Alcotest.fail "manifest has no ocaml version");
  Alcotest.(check bool) "git key kept" true
    (Json.member "git" j <> None)

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json rejects malformed" `Quick
      test_json_rejects_malformed;
    Alcotest.test_case "json parse outcomes pinned" `Quick
      test_json_parse_outcomes_pinned;
    Alcotest.test_case "json prints ints as string_of_int" `Quick
      test_json_int_printing;
    Alcotest.test_case "histogram quantiles (uniform)" `Quick
      test_histogram_quantiles_uniform;
    Alcotest.test_case "histogram sub-second buckets" `Quick
      test_histogram_subsecond_buckets;
    Alcotest.test_case "histogram constant + edges" `Quick
      test_histogram_constant_and_edges;
    Alcotest.test_case "snapshot merge associative" `Quick
      test_snapshot_merge_associative;
    Alcotest.test_case "merge pools histograms" `Quick
      test_merge_pools_histograms;
    Alcotest.test_case "kind mismatch rejected" `Quick
      test_kind_mismatch_rejected;
    Alcotest.test_case "disabled spans are no-ops" `Quick
      test_disabled_spans_are_noops;
    Alcotest.test_case "spans nest and record" `Quick
      test_spans_nest_and_record;
    Alcotest.test_case "jsonl writer round-trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "netsim counters end-to-end" `Quick
      test_netsim_counters_end_to_end;
    Alcotest.test_case "phase1 counters flow" `Quick test_phase1_counters_flow;
    Alcotest.test_case "manifest provenance" `Quick test_manifest_provenance;
  ]
