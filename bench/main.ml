(* The benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (Sec. IV) at the scale given by REPRO_CASES (default 2000 test cases
   per topology per kind; the paper used 10000 — set REPRO_CASES=10000
   for a full run).

   Part 2 runs Bechamel microbenchmarks: one Test.make per
   table/figure kernel, plus ablations of the design choices DESIGN.md
   calls out (incremental vs from-scratch SPT repair, MRC configuration
   construction, route-table computation). *)

module Experiments = Rtr_sim.Experiments
module Report = Rtr_sim.Report
module Graph = Rtr_graph.Graph
module View = Rtr_graph.View
module Damage = Rtr_failure.Damage
module Metrics = Rtr_obs.Metrics
module Trace = Rtr_obs.Trace

let line = String.make 78 '='
let section title = Printf.printf "\n%s\n%s\n%s\n%!" line title line

(* --quick trims the reproduction to two topologies and shrinks the
   microbenchmark quota: a CI smoke that still exercises every stage.
   --metrics records wall time per stage, every microbenchmark result,
   and the full instrumentation snapshot as one JSON bench datapoint
   (the committed BENCH_*.json series). *)
let quick = ref false
let metrics_path = ref None
let trace_path = ref None
let jobs_override = ref None

let () =
  Arg.parse
    [
      ("--quick", Arg.Set quick, " Smoke mode: 2 topologies, short quotas");
      ( "--jobs",
        Arg.Int (fun n -> jobs_override := Some n),
        "N Worker domains for the reproduction stage (default: RTR_JOBS, \
         else 1)" );
      ( "--metrics",
        Arg.String (fun p -> metrics_path := Some p),
        "FILE Write the bench datapoint (JSON) to FILE" );
      ( "--trace",
        Arg.String (fun p -> trace_path := Some p),
        "FILE Write a JSONL span trace to FILE" );
    ]
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "bench [--quick] [--jobs N] [--metrics FILE] [--trace FILE]"

let effective_jobs config =
  Option.value !jobs_override ~default:config.Experiments.jobs

let timed name f =
  let g = Metrics.gauge (Printf.sprintf "bench.wall_s.%s" name) in
  let t0 = Trace.now () in
  let finish () = Metrics.Gauge.set g (Trace.now () -. t0) in
  Fun.protect ~finally:finish (fun () -> Trace.with_ ("bench." ^ name) f)

(* ------------------------------------------------------------------ *)
(* Part 1: the paper's tables and figures *)

let reproduce () =
  let config = Experiments.default_config () in
  let config = { config with Experiments.jobs = effective_jobs config } in
  let config =
    if !quick then
      let presets =
        match config.Experiments.presets with
        | a :: b :: _ -> [ a; b ]
        | presets -> presets
      in
      { config with Experiments.presets }
    else config
  in
  section
    (Printf.sprintf
       "Paper reproduction (%d recoverable + %d irrecoverable cases per \
        topology)"
       config.Experiments.recoverable_per_topo
       config.Experiments.irrecoverable_per_topo);
  let log s = Printf.printf "# %s\n%!" s in
  let data = Experiments.collect ~log config in
  let tbl t =
    print_string (Report.render_table t);
    print_newline ()
  in
  let fig f =
    print_string (Report.render_figure f);
    print_newline ()
  in
  tbl (Experiments.table2 config);
  fig (Experiments.fig7 data);
  tbl (Experiments.table3 data);
  fig (Experiments.fig8 data);
  fig (Experiments.fig9 data);
  fig (Experiments.fig10 data);
  fig (Experiments.fig11 ~log config);
  fig (Experiments.fig12 data);
  fig (Experiments.fig13 data);
  tbl (Experiments.table4 data);
  (* Beyond the paper: quantify what Constraints 1 & 2 buy. *)
  tbl
    (Experiments.ablation_constraints
       ~cases:(min 500 config.Experiments.recoverable_per_topo)
       config)

(* The flow-level congestion sweep: every recovery scheme over the
   same demand matrices (REPRO_FLOWS flows per topology, default
   125,000 — x5 schemes x topologies, so a full sweep evaluates well
   over 10^6 flows, and the quick two-topology smoke still clears a
   million).  Prints before the microbench marker on purpose: the
   output is deterministic and jobs-invariant, so the CI determinism
   gate diffs it across RTR_JOBS values. *)
let flows_stage () =
  let config = Experiments.default_config () in
  let config = { config with Experiments.jobs = effective_jobs config } in
  let config =
    if !quick then
      let presets =
        match config.Experiments.presets with
        | a :: b :: _ -> [ a; b ]
        | presets -> presets
      in
      { config with Experiments.presets }
    else config
  in
  section "Flow-level congestion sweep (delivery, stretch, link load)";
  let log s = Printf.printf "# %s\n%!" s in
  let data = Experiments.congestion_data ~log config in
  print_string (Report.render_table (Experiments.congestion_table data));
  print_newline ();
  print_string (Report.render_figure (Experiments.congestion_figure data));
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel microbenchmarks *)

open Bechamel
open Toolkit

(* Shared fixtures, built once. *)
let topo = lazy (Rtr_topo.Isp.load_by_name "AS209")
let graph_of t = Rtr_topo.Topology.graph t
let table =
  lazy (Rtr_routing.Route_table.compute (View.full (graph_of (Lazy.force topo))))

let damage =
  lazy
    (let rng = Rtr_util.Rng.make 99 in
     let area = Rtr_failure.Area.random_disc rng ~r_min:150. ~r_max:250. () in
     Damage.apply (Lazy.force topo) area)

(* One recovery situation: a detector, its trigger, and a reachable
   destination. *)
let a_case =
  lazy
    (let t = Lazy.force topo and d = Lazy.force damage in
     let g = graph_of t in
     let rec find v =
       if v >= Graph.n_nodes g then failwith "bench: no detector"
       else if Damage.node_ok d v then
         match Damage.unreachable_neighbors d g v with
         | (trigger, _) :: _ ->
             let rec pick c =
               if
                 c <> v
                 && Damage.node_ok d c
                 && Rtr_graph.Bfs.reachable (Damage.view d) v c
               then c
               else pick ((c + 1) mod Graph.n_nodes g)
             in
             (v, trigger, pick ((v + 1) mod Graph.n_nodes g))
         | [] -> find (v + 1)
       else find (v + 1)
     in
     find 0)

let spt =
  lazy (Rtr_graph.Dijkstra.spt (View.full (graph_of (Lazy.force topo))) ~root:0 ())
let mrc = lazy (Rtr_baselines.Mrc.build_auto (graph_of (Lazy.force topo)))

let bench_tests () =
  let t = Lazy.force topo in
  let g = graph_of t in
  let d = Lazy.force damage in
  let initiator, trigger, dst = Lazy.force a_case in
  let tbl = Lazy.force table in
  let pre_spt = Lazy.force spt in
  let dead = Damage.failed_links d in
  let damaged_view = View.remove_links (View.full g) dead in
  let mrc = Lazy.force mrc in
  [
    (* Table II: building a calibrated topology (generation plus
       crossing precomputation). *)
    Test.make ~name:"table2/generate-AS209"
      (Staged.stage (fun () ->
           let rng = Rtr_util.Rng.make 20903 in
           ignore
             (Rtr_topo.Generator.generate rng ~name:"bench" ~n:58 ~m:108 ())));
    (* Fig. 7 kernel: one phase-1 walk around a failure area. *)
    Test.make ~name:"fig7/phase1-walk"
      (Staged.stage (fun () ->
           ignore (Rtr_core.Phase1.run t d ~initiator ~trigger ())));
    (* Table III kernels: one full recovery per scheme. *)
    Test.make ~name:"table3/rtr-session"
      (Staged.stage (fun () ->
           let s = Rtr_core.Rtr.start t d ~initiator ~trigger () in
           ignore (Rtr_core.Rtr.recover s ~dst)));
    Test.make ~name:"table3/fcp-recovery"
      (Staged.stage (fun () ->
           ignore (Rtr_baselines.Fcp.run t d ~initiator ~dst)));
    Test.make ~name:"table3/mrc-recovery"
      (Staged.stage (fun () ->
           ignore (Rtr_baselines.Mrc.recover mrc d ~initiator ~trigger ~dst)));
    (* Fig. 10 kernel: header byte accounting. *)
    Test.make ~name:"fig10/header-pricing"
      (Staged.stage (fun () ->
           ignore (Rtr_routing.Header.rtr_phase1 ~n_failed:8 ~n_cross:3);
           ignore (Rtr_routing.Header.fcp ~n_failed:8 ~route_hops:6)));
    (* Fig. 11 kernel: classifying every failed routing path of one
       scenario. *)
    Test.make ~name:"fig11/classify-failed-paths"
      (Staged.stage (fun () ->
           ignore (Rtr_sim.Scenario.count_failed_paths t tbl d)));
    (* Figs. 8/9/12/13 kernel: reducing samples to a CDF. *)
    Test.make ~name:"figs/cdf-of-2000"
      (Staged.stage
         (let xs =
            List.init 2000 (fun i -> float_of_int (i * 7919 mod 663))
          in
          fun () -> ignore (Rtr_sim.Cdf.of_values xs)));
    (* Ablation: the full SPF phase 2 runs vs repairing the
       pre-failure tree incrementally (the paper's [19, 20]). *)
    Test.make ~name:"ablation/spt-scratch"
      (Staged.stage (fun () ->
           ignore (Rtr_graph.Dijkstra.spt damaged_view ~root:0 ())));
    (* Ablation: the same damaged-Dijkstra workload in a reusable
       workspace — no label arrays or heap allocated per run. *)
    Test.make ~name:"ablation/spt-workspace"
      (Staged.stage
         (let ws = Rtr_graph.Dijkstra.Workspace.create () in
          fun () ->
            ignore
              (Rtr_graph.Dijkstra.spt ~workspace:ws damaged_view ~root:0 ())));
    Test.make ~name:"ablation/spt-incremental"
      (Staged.stage (fun () ->
           let c = Rtr_graph.Spt.copy pre_spt in
           ignore
             (Rtr_graph.Incremental_spt.remove c ~dead_links:dead
                ~view:damaged_view ())));
    (* Ablation: deriving the damaged view inside the timed run. *)
    Test.make ~name:"ablation/spt-view"
      (Staged.stage (fun () ->
           ignore
             (Rtr_graph.Dijkstra.spt
                (View.remove_links (View.full g) dead)
                ~root:0 ())));
    (* Ablation: the routing substrate itself. *)
    Test.make ~name:"ablation/route-table-58"
      (Staged.stage (fun () ->
           ignore (Rtr_routing.Route_table.compute (View.full g))));
    Test.make ~name:"ablation/mrc-build"
      (Staged.stage (fun () -> ignore (Rtr_baselines.Mrc.build g ~k:6)));
    Test.make ~name:"ablation/igp-convergence"
      (Staged.stage (fun () ->
           ignore (Rtr_igp.Convergence.compute Rtr_igp.Igp_config.classic g d)));
  ]

let run_benchmarks () =
  section "Bechamel microbenchmarks (one Test.make per table/figure kernel)";
  let instance = Instance.monotonic_clock in
  let quota = if !quick then Time.second 0.05 else Time.second 0.4 in
  let cfg = Benchmark.cfg ~limit:1500 ~quota ~kde:(Some 500) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = ref [] in
  List.iter
    (fun tst ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg [ instance ] elt in
          let est = Analyze.one ols instance raw in
          let ns =
            match Analyze.OLS.estimates est with
            | Some [ x ] -> x
            | _ -> Float.nan
          in
          Metrics.Gauge.set
            (Metrics.gauge
               (Printf.sprintf "bench.ns_per_run.%s" (Test.Elt.name elt)))
            ns;
          results := (Test.Elt.name elt, ns) :: !results)
        (Test.elements tst))
    (bench_tests ());
  let pretty ns =
    if Float.is_nan ns then "       n/a"
    else if ns >= 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
    else if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
    else if ns >= 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
    else Printf.sprintf "%8.0f ns" ns
  in
  Printf.printf "%-36s %10s\n%s\n" "benchmark" "time/run"
    (String.make 48 '-');
  List.iter
    (fun (name, ns) -> Printf.printf "%-36s %s\n" name (pretty ns))
    (List.rev !results)

(* ------------------------------------------------------------------ *)
(* Recovery-map ablation: what the precomputed service costs offline
   (artifact size, compile time, pool speedup at --jobs 4) and buys
   online (index-lookup latency vs a reactive recovery recompute). *)

let rmap_ablation () =
  section "Recovery-map ablation: offline precompute vs O(log n) lookups";
  let module Enum = Rtr_rmap.Enum in
  let module Compile = Rtr_rmap.Compile in
  let module Store = Rtr_rmap.Store in
  let module Service = Rtr_rmap.Service in
  let t = Lazy.force topo in
  let grid = if !quick then 3 else 5 in
  let config =
    {
      Enum.default with
      Enum.grid_cols = grid;
      Enum.grid_rows = grid;
      Enum.radii = [ 150.0; 250.0 ];
    }
  in
  let r1 = Compile.run ~jobs:1 t config in
  let r4 = Compile.run ~jobs:4 t config in
  let identical = String.equal r1.Compile.artifact r4.Compile.artifact in
  Metrics.Gauge.set
    (Metrics.gauge "rmap.jobs_identical")
    (if identical then 1.0 else 0.0);
  if not identical then
    print_endline "WARNING: jobs=1 and jobs=4 artifacts differ!";
  let speedup = r1.Compile.wall_s /. r4.Compile.wall_s in
  Metrics.Gauge.set (Metrics.gauge "rmap.pool_speedup") speedup;
  Printf.printf
    "precompute: %d scenarios, %d cases, %d bytes\n\
    \  jobs=1 %.2f s (%.0f cases/s), jobs=4 %.2f s (%.0f cases/s), \
     speedup %.2fx, artifacts %s\n"
    r1.Compile.n_scenarios r1.Compile.n_cases
    (String.length r1.Compile.artifact)
    r1.Compile.wall_s
    (float_of_int r1.Compile.n_cases /. r1.Compile.wall_s)
    r4.Compile.wall_s
    (float_of_int r4.Compile.n_cases /. r4.Compile.wall_s)
    speedup
    (if identical then "byte-identical" else "DIFFER");
  match Store.of_string r4.Compile.artifact with
  | Error e -> Printf.printf "artifact rejected on reload: %s\n" e
  | Ok store -> (
      match Service.create ~topo:t store with
      | Error e -> Printf.printf "service rejected: %s\n" e
      | Ok service ->
          let n = if !quick then 200_000 else 1_000_000 in
          let b = Service.bench_lookups service ~n ~seed:7 in
          Printf.printf
            "lookup: %d probes (%d hits, %d misses) in %.3f s: %.0f \
             lookups/s, %.0f ns/lookup\n"
            b.Service.lookups b.Service.hits b.Service.misses b.Service.wall_s
            b.Service.per_sec b.Service.ns_per_lookup;
          (* The reactive alternative to one of those lookups: recompute
             the whole scenario's recovery from scratch. *)
          let tbl = Rtr_sim.Topo_cache.table (Rtr_sim.Topo_cache.shared t) in
          let reps = if !quick then 20 else 100 in
          let rng = Rtr_util.Rng.make 7 in
          let signatures =
            Array.init reps (fun _ ->
                Store.signature store
                  (Rtr_util.Rng.int rng (Store.n_scenarios store)))
          in
          let t0 = Trace.now () in
          Array.iter
            (fun s ->
              ignore
                (Compile.eval_links t tbl (Rtr_rmap.Signature.to_links s)))
            signatures;
          let reactive_ns = (Trace.now () -. t0) *. 1e9 /. float_of_int reps in
          Metrics.Gauge.set (Metrics.gauge "rmap.reactive_ns") reactive_ns;
          let vs = reactive_ns /. b.Service.ns_per_lookup in
          Metrics.Gauge.set (Metrics.gauge "rmap.lookup_vs_reactive") vs;
          Printf.printf
            "reactive recompute: %.0f ns/scenario — precomputed lookups are \
             %.0fx faster\n"
            reactive_ns vs)

(* ------------------------------------------------------------------ *)
(* Streaming pipeline ablation: the same workload as [reproduce] (two
   topologies, capped quotas) pushed through the on-disk three-stage
   path — generate to a stream file, evaluate as two shard processes'
   worth of work (one of them killed mid-record and resumed), reduce
   from the shard files — and checked byte-for-byte against the
   in-process [Experiments.collect].  Exercises the checkpoint.* and
   stream.* counters that the metrics datapoint records. *)

let stream_pipeline () =
  section "Streaming pipeline: generate | evaluate (2 shards, resume) | reduce";
  let module Pipeline = Rtr_sim.Pipeline in
  let module Stream = Rtr_sim.Stream in
  let module Shard_store = Rtr_sim.Shard_store in
  let config = Experiments.default_config () in
  let presets =
    match config.Experiments.presets with
    | a :: b :: _ -> [ a; b ]
    | presets -> presets
  in
  let cases = min 200 config.Experiments.recoverable_per_topo in
  let jobs = effective_jobs config in
  let dir = Filename.temp_file "rtr_bench_stream" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let cleanup () =
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let stream_path = Filename.concat dir "scenarios.jsonl" in
  let shard_path i = Filename.concat dir (Printf.sprintf "shard%d.jsonl" i) in
  let header, records =
    Pipeline.generate ~presets ~rec_quota:cases ~irr_quota:cases
      ~seed:config.Experiments.seed ~mrc_k:config.Experiments.mrc_k ()
  in
  Stream.write stream_path header records;
  let evaluate_shard ~resume shard =
    let header, next =
      match Stream.open_reader stream_path with
      | Ok r -> r
      | Error e -> failwith e
    in
    match
      Shard_store.open_writer ~path:(shard_path shard) ~resume ~shard
        ~shards:2 ~count:header.Stream.count
    with
    | Shard_store.Complete -> ()
    | Shard_store.Writer (w, committed) ->
        let rec filtered () =
          match next () with
          | None -> None
          | Some (Error e) -> failwith e
          | Some (Ok r)
            when r.Stream.seq mod 2 = shard
                 && not (committed r.Stream.seq) ->
              Some r
          | Some (Ok _) -> filtered ()
        in
        let mrc =
          Pipeline.evaluate ~jobs ~header ~next:filtered
            ~emit:(Shard_store.append w) ()
        in
        Shard_store.finish w ~mrc
  in
  (* Kill shard 0 mid-record: chop its footer and half of its last
     record, leaving an unterminated torn tail, then resume. *)
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
    | _ -> ()
  in
  let t0 = Trace.now () in
  evaluate_shard ~resume:false 0;
  kill_tail (shard_path 0);
  evaluate_shard ~resume:true 0;
  evaluate_shard ~resume:false 1;
  let eval_wall = Trace.now () -. t0 in
  let data_file =
    Experiments.reduce_shards ~header
      [ Shard_store.load (shard_path 0); Shard_store.load (shard_path 1) ]
  in
  let config' =
    {
      config with
      Experiments.presets;
      recoverable_per_topo = cases;
      irrecoverable_per_topo = cases;
      jobs;
    }
  in
  let data_mem = Experiments.collect config' in
  let render d = Report.render_table (Experiments.table3 d) in
  let identical = String.equal (render data_file) (render data_mem) in
  Metrics.Gauge.set
    (Metrics.gauge "stream.pipeline_identical")
    (if identical then 1.0 else 0.0);
  let total_cases =
    List.fold_left
      (fun acc (s : Stream.topo_stat) ->
        acc + s.Stream.rec_cases + s.Stream.irr_cases)
      0 header.Stream.topos
  in
  Metrics.Gauge.set
    (Metrics.gauge "bench.cases_per_sec.stream")
    (float_of_int total_cases /. eval_wall);
  Printf.printf
    "stream: %d scenario records, %d cases over %d topologies\n\
    \  evaluate (2 shards, shard 0 killed+resumed): %.2f s (%.0f cases/s, \
     jobs=%d)\n\
    \  reduced table3 vs in-memory collect: %s\n"
    header.Stream.count total_cases
    (List.length header.Stream.topos)
    eval_wall
    (float_of_int total_cases /. eval_wall)
    jobs
    (if identical then "byte-identical" else "DIFFER");
  if not identical then
    print_endline "WARNING: streamed and in-memory reductions differ!"

(* A packet-level coda: the Sec. I motivation quantified by the
   discrete-event simulator (see examples/live_recovery.ml for the
   narrated version). *)
let motivation () =
  section "Packet-level motivation (DES): drops during convergence, RTR off/on";
  let topo = Lazy.force topo in
  let g = graph_of topo in
  let d = Lazy.force damage in
  let rng = Rtr_util.Rng.make 4242 in
  let n = Graph.n_nodes g in
  let flows =
    List.init 60 (fun _ ->
        {
          Rtr_des.Netsim.src = Rtr_util.Rng.int rng n;
          dst = Rtr_util.Rng.int rng n;
          rate_pps = 40.0;
        })
    |> List.filter (fun f -> f.Rtr_des.Netsim.src <> f.Rtr_des.Netsim.dst)
  in
  let run rtr_enabled =
    Rtr_des.Netsim.run topo d
      {
        Rtr_des.Netsim.igp = Rtr_igp.Igp_config.classic;
        rtr_enabled;
        t_fail = 1.0;
        t_end = 9.0;
        flows;
        episodes = [];
      }
  in
  List.iter
    (fun (name, s) ->
      Printf.printf "%-10s generated %6d  delivered %6d (%5.1f%%)  dropped %6d\n"
        name s.Rtr_des.Netsim.generated s.Rtr_des.Netsim.delivered
        (100.0
        *. float_of_int s.Rtr_des.Netsim.delivered
        /. float_of_int s.Rtr_des.Netsim.generated)
        s.Rtr_des.Netsim.dropped)
    [ ("RTR off", run false); ("RTR on", run true) ]

let () =
  Option.iter Rtr_obs.Trace.install_file_sink !trace_path;
  let t0 = Unix.gettimeofday () in
  timed "reproduce" reproduce;
  (* Headline throughput: recovery cases simulated per wall-clock
     second of the reproduction stage. *)
  (let snap = Metrics.snapshot () in
   match
     ( Metrics.Snapshot.counter snap "runner.cases",
       Metrics.Snapshot.gauge snap "bench.wall_s.reproduce" )
   with
   | Some cases, Some wall when wall > 0.0 ->
       Metrics.Gauge.set
         (Metrics.gauge "bench.cases_per_sec.reproduce")
         (float_of_int cases /. wall)
   | _ -> ());
  timed "flows" flows_stage;
  (* Headline flow throughput: flows evaluated (across every scheme
     and topology) per wall-clock second of the sweep. *)
  (let snap = Metrics.snapshot () in
   match
     ( Metrics.Snapshot.counter snap "flowsim.flows",
       Metrics.Snapshot.gauge snap "bench.wall_s.flows" )
   with
   | Some flows, Some wall when wall > 0.0 ->
       Metrics.Gauge.set
         (Metrics.gauge "bench.flows_per_sec")
         (float_of_int flows /. wall)
   | _ -> ());
  timed "motivation" motivation;
  timed "microbench" run_benchmarks;
  (* After the microbench marker on purpose: the stage prints wall-clock
     figures, and the CI determinism gate diffs everything before the
     marker across RTR_JOBS values. *)
  timed "rmap" rmap_ablation;
  timed "stream" stream_pipeline;
  let wall_s = Unix.gettimeofday () -. t0 in
  Printf.printf "\ntotal wall time: %.1f s\n" wall_s;
  match !metrics_path with
  | None -> ()
  | Some path ->
      let config = Experiments.default_config () in
      let jobs = effective_jobs config in
      let manifest =
        Rtr_obs.Manifest.make ~wall_s
          ~config:
            ([
               ( "repro_cases",
                 string_of_int config.Experiments.recoverable_per_topo );
               ("quick", string_of_bool !quick);
             ]
            (* Only recorded when parallel, so a sequential datapoint's
               manifest keys match the earlier committed BENCH_*.json. *)
            @ if jobs > 1 then [ ("jobs", string_of_int jobs) ] else [])
          ()
      in
      Metrics.write_file
        ~manifest:(Rtr_obs.Manifest.to_json manifest)
        path
        (Metrics.snapshot ());
      Printf.printf "wrote %s\n" path
