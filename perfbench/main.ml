(* The benchmark executable: runs one workload and prints one JSON line
   with every metric, the checks and the audit data.  perfbench/run.py
   builds it, runs it and prints the result line.

   main.exe --workload NAME --seed N --seconds S --trace 0|1
   main.exe --list-metrics *)

module Json = Rtr_obs.Json

let workloads =
  [
    ("repro", W_repro.run);
    ("flows", W_flows.run);
    ("rmap", W_rmap.run);
    ("resume", W_resume.run);
  ]

let list_metrics () =
  let obj name unit extra =
    Json.Obj ([ ("name", Json.String name); ("unit", Json.String unit) ] @ extra)
  in
  let per_layer =
    List.map
      (fun ((n, u, _) as m) ->
        obj n u [ ("better", Json.String (Catalogue.better m)) ])
      Catalogue.per_layer
  in
  print_endline (Json.to_string (Json.Arr per_layer))

(* Share of the timed phase's wall time that child spans account for:
   the rest is the round loop's own bookkeeping (checks, counters). *)
let attributed () =
  let round = ref 0. and covered = ref 0. in
  List.iter
    (fun (s : Spans.self) ->
      if s.Spans.sname = "round" then begin
        round := s.Spans.total_ns;
        covered := s.Spans.total_ns -. s.Spans.self_ns
      end)
    (Spans.fold ());
  if !round > 0. then !covered /. !round else 0.

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and list = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME repro|flows|rmap|resume");
      ("--seed", Arg.Set_int seed, "N Input seed");
      ("--seconds", Arg.Set_float seconds, "S Length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 Traced run (per-layer metrics)");
      ("--list-metrics", Arg.Set list, " Print the per-layer catalogue");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !list then (list_metrics (); exit 0);
  let run =
    match List.assoc_opt !workload workloads with
    | Some r -> r
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  Spans.enabled := !trace = 1;
  if not (Sys.file_exists (Common.work_dir ())) then
    Sys.mkdir (Common.work_dir ()) 0o755;
  Rtr_des.Flowsim.ensure_metrics_registered ();
  for _ = 1 to 5 do
    Host.probe ()
  done;
  let elapsed_ns, per_round, extra = run ~seed:!seed ~seconds:!seconds in
  (* ---- normalise ---- *)
  (* The end-to-end figures are normalised block by block (see
     [Bench.normalised_rounds]); per-layer figures, measured in the
     traced run's spans and replays, by the timed phase's median probe. *)
  let f = Host.factor ~range:!Bench.timed_probes () in
  let median b = Host.median (Host.Buf.to_array b) /. 1e9 in
  let raw_setup_s = median Bench.setup_ns in
  let norm_rounds = Bench.normalised_rounds () in
  let norm_s = Array.fold_left ( +. ) 0. norm_rounds in
  let raw_items_per_s = float_of_int !Bench.items /. (!Bench.timed_ns /. 1e9) in
  let e2e =
    [
      ("setup_s", median Bench.setup_norm_ns);
      ("items_per_s", float_of_int !Bench.items /. (norm_s /. 1e9));
    ]
  in
  Bench.set "host.ref_us" (Host.ref_ns ~range:!Bench.timed_probes () /. 1e3);
  Bench.set "raw.setup_s" raw_setup_s;
  Bench.set "raw.items_per_s" raw_items_per_s;
  Bench.set "failed_frac"
    (float_of_int !Bench.failed /. float_of_int (max 1 !Bench.attempted));
  Bench.set "trace.attributed_frac" (attributed ());
  List.iter
    (fun c ->
      Bench.set c
        (float_of_int (Bench.count c) /. float_of_int (max 1 per_round)))
    Catalogue.per_item_counters;
  Hashtbl.iter
    (fun name v ->
      Bench.set name (v *. f);
      if List.mem name Catalogue.raw_timings then Bench.set ("raw." ^ name) v)
    Bench.timings;
  Hashtbl.iter (fun name v -> Bench.set name (v /. f)) Bench.rates;
  let value name =
    match Hashtbl.find_opt Bench.values name with
    | Some v when Float.is_finite v -> v
    | _ -> 0.
  in
  let metric v unit =
    Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]
  in
  let per_layer =
    List.map (fun (n, u, _) -> (n, metric (value n) u)) Catalogue.per_layer
  in
  let counts =
    List.filter_map
      (fun (n, _, k) ->
        if k = Catalogue.Count then Some (n, Json.Float (value n)) else None)
      Catalogue.per_layer
  in
  let ints kv = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) kv) in
  let floats kv = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) kv) in
  let self_time =
    List.map
      (fun (s : Spans.self) ->
        Json.Obj
          [
            ("name", Json.String s.Spans.sname);
            ("calls", Json.Int s.Spans.calls);
            ("total_s", Json.Float (s.Spans.total_ns *. f /. 1e9));
            ("self_s", Json.Float (s.Spans.self_ns *. f /. 1e9));
          ])
      (Spans.fold ())
  in
  if Bench.traced () then
    Spans.write
      (Filename.concat (Common.work_dir ()) ("trace-" ^ !workload ^ ".jsonl"));
  let doc =
    Json.Obj
      [
        ("workload", Json.String !workload);
        ("seed", Json.Int !seed);
        ("trace", Json.Int !trace);
        ("correct", Json.Bool (!Bench.failed = 0));
        ("attempted", Json.Int !Bench.attempted);
        ("failed", Json.Int !Bench.failed);
        ( "failures",
          Json.Arr (List.rev_map (fun s -> Json.String s) !Bench.failures) );
        ( "e2e",
          Json.Obj
            (List.map
               (fun (n, v) -> (n, metric v (List.assoc n Catalogue.end_to_end)))
               e2e) );
        ( "raw",
          floats
            [ ("setup_s", raw_setup_s); ("items_per_s", raw_items_per_s) ] );
        ("per_layer", Json.Obj per_layer);
        ("counts", Json.Obj counts);
        ("counters", ints (Option.value !Bench.round0_counts ~default:[]));
        ("rounds_run", Json.Int !Bench.n_rounds);
        ( "rounds",
          Json.Arr
            (List.mapi
               (fun r (k, n) ->
                 Json.Arr
                   [
                     Json.Int k; Json.Int n; Json.Float (norm_rounds.(r) /. 1e9);
                   ])
               (List.rev !Bench.rounds)) );
        ("factor_timed", Json.Float f);
        ("items_per_round", Json.Int per_round);
        ("timed_wall_s", Json.Float (float_of_int elapsed_ns /. 1e9));
        ( "setup_raw_s",
          Json.Arr
            (List.map
               (fun x -> Json.Float (x /. 1e9))
               (Array.to_list (Host.Buf.to_array Bench.setup_ns))) );
        ("host_probes", Json.Int (Host.Buf.length Host.samples));

        ("self_time", Json.Arr self_time);
        ("extra", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) extra));
      ]
  in
  print_endline (Json.to_string doc)
