(* rtr_sim: command-line driver regenerating every table and figure of
   the paper's evaluation, plus single-scenario inspection. *)

open Cmdliner
open Term.Syntax
module Experiments = Rtr_sim.Experiments
module Report = Rtr_sim.Report
module Scenario = Rtr_sim.Scenario
module Stream = Rtr_sim.Stream
module Shard_store = Rtr_sim.Shard_store
module Topo_cache = Rtr_routing.Topo_cache
module Isp = Rtr_topo.Isp
module Rtr = Rtr_core.Rtr
module Phase1 = Rtr_core.Phase1

let log_line s =
  prerr_string ("# " ^ s ^ "\n");
  flush stderr

(* The one exit path.  A subcommand that completes exits 0; one that
   cannot raises [Stop (code, msg)], and [exit_code], around
   [Cmd.eval'], prints [msg] as one line on stderr (none when it is
   empty: stdout has reported the failure) and exits [code]: 1 for bad
   data, an unwritable output or a found violation, 2 for a bad value
   that rtr_sim parses itself.  Cmdliner's own parse errors exit 124;
   125 means a bug. *)
exception Stop of int * string

let stop code fmt = Printf.ksprintf (fun msg -> raise (Stop (code, msg))) fmt

(* An I/O error on [path], whose message may already start with it. *)
let io_error path msg =
  if String.starts_with ~prefix:path msg then stop 1 "%s" msg
  else stop 1 "%s: %s" path msg

(* A result's value; its error exits [code], or 1 as an I/O error on
   [path]. *)
let get ?(code = 1) ?path = function
  | Ok x -> x
  | Error e -> (
      match path with Some p -> io_error p e | None -> stop code "%s" e)

let exit_code = function
  | Stop (code, msg) ->
      if msg <> "" then prerr_endline ("rtr_sim: " ^ msg);
      code
  | e ->
      prerr_endline
        ("rtr_sim: internal error, uncaught exception: "
       ^ Printexc.to_string e);
      Cmd.Exit.internal_error

(* [Shard_store] and [Experiments.reduce_shards] raise [Failure] on bad
   shard data, with a message that names the file, and [Sys_error] on
   I/O on [path]. *)
let shard_data ?(path = "") f =
  try f () with
  | Failure msg -> stop 1 "%s" msg
  | Sys_error msg -> io_error path msg

(* Values rtr_sim parses itself, each a bad value (exit 2) when it
   fails: [split] serves --topos, --radii, --fail and the halves of
   --grid, [parse] every value read from a string, and [in_range] every
   count, --mrc-k and the radii. *)
let split sep s = List.map String.trim (String.split_on_char sep s)

let parse what f v =
  match f v with Some x -> x | None -> stop 2 "%s %s" what v

(* A comma list of values; blank is the empty list. *)
let values what parse_one s =
  if String.trim s = "" then []
  else List.map (parse what parse_one) (split ',' s)

let in_range option ~ok ~range show v =
  if ok v then v else stop 2 "--%s %s: must be %s" option (show v) range

let count option =
  in_range option ~ok:(fun n -> n >= 0) ~range:">= 0" string_of_int

let count_arg ?(docv = "N") option default ~doc =
  let+ n = Arg.(value & opt int default & info [ option ] ~docv ~doc) in
  count option n

(* An int option without a default, checked when given. *)
let int_opt ?(docv = "N") ?(check = Fun.id) option ~doc =
  let+ n = Arg.(value & opt (some int) None & info [ option ] ~docv ~doc) in
  Option.map check n

let preset name =
  match Isp.find name with
  | Some p -> p
  | None -> stop 1 "unknown topology %S" name

let load_topo name = Isp.load (preset name)

(* A node sequence as "v1 -> v2 -> ...". *)
let hops nodes = String.concat " -> " (List.map (Printf.sprintf "v%d") nodes)

(* ------------------------------------------------------------------ *)
(* Observability: every subcommand accepts --trace/--metrics.  The
   setup term installs the span sink up front and registers the
   metrics-snapshot write for process exit, so subcommands need no
   further wiring. *)

let trace_arg =
  let doc = "Write a JSONL span trace to $(docv)." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write a metrics snapshot (counters, gauges, histogram quantiles) plus a \
     run manifest as JSON to $(docv) on exit."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

(* Fail fast on an unwritable path instead of losing the artifact (or
   dying with a raw Sys_error) after the whole run has completed. *)
let check_writable path =
  try close_out (open_out path) with Sys_error msg -> io_error path msg

let setup_obs trace metrics =
  (* The driver itself only exercises the analytic harness; pull the
     packet simulator's counters in anyway so snapshots always list the
     full netsim.* family (at zero when unused). *)
  Rtr_des.Netsim.ensure_metrics_registered ();
  Option.iter
    (fun path ->
      check_writable path;
      Rtr_obs.Trace.install_file_sink path)
    trace;
  match metrics with
  | None -> ()
  | Some path ->
      check_writable path;
      let t0 = Rtr_obs.Trace.now () in
      at_exit (fun () ->
          (* Record the effective parallelism: the largest job count any
             pool entry point actually ran with, not what the flag said. *)
          let config =
            match Rtr_sim.Parallel.noted_jobs () with
            | None -> []
            | Some jobs -> [ ("jobs", string_of_int jobs) ]
          in
          let manifest =
            Rtr_obs.Manifest.make ~config
              ~wall_s:(Rtr_obs.Trace.now () -. t0)
              ()
          in
          Rtr_obs.Metrics.write_file
            ~manifest:(Rtr_obs.Manifest.to_json manifest)
            path
            (Rtr_obs.Metrics.snapshot ());
          log_line (Printf.sprintf "wrote %s" path))

(* A subcommand: --trace/--metrics are set up before its own flags are
   read, and it exits 0 unless it raises [Stop]. *)
let cmd name ~doc term =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (fun () () -> Cmd.Exit.ok)
      $ (const setup_obs $ trace_arg $ metrics_arg)
      $ term)

(* ------------------------------------------------------------------ *)
(* Common options *)

let cases_arg =
  let doc =
    "Recoverable and irrecoverable test cases per topology (the paper used \
     10000)."
  in
  int_opt "cases" ~check:(count "cases") ~doc

let seed_arg =
  let doc = "Base random seed." in
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc)

let topos_arg =
  let doc =
    "Comma-separated AS names (default: the eight ASes of Table II)."
  in
  Arg.(value & opt (some string) None & info [ "topos" ] ~docv:"AS,..." ~doc)

let topo_arg =
  let doc = "Topology name." in
  Arg.(value & opt string "AS209" & info [ "topo" ] ~docv:"AS" ~doc)

(* --out DIR: an artifact directory, created up front (as [Report.save]
   would) so that a path which cannot be a directory fails before the
   run rather than after it. *)
let out_dir_arg ~doc =
  let+ out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc)
  in
  Option.map
    (fun dir ->
      Report.mkdir_p dir;
      if not (Sys.file_exists dir && Sys.is_directory dir) then
        stop 1 "%s: not a directory" dir;
      dir)
    out

let out_term = out_dir_arg ~doc:"Also write CSV artifacts into $(docv)."

let mrc_k_arg =
  let doc = "Number of MRC configurations (default: smallest feasible)." in
  let check =
    in_range "mrc-k" ~ok:(fun k -> k >= 2) ~range:">= 2" string_of_int
  in
  int_opt ~docv:"K" "mrc-k" ~check ~doc

let jobs_term =
  let doc =
    "Worker domains for scenario evaluation (default: $(b,RTR_JOBS), else \
     the recommended domain count of this machine).  Results are \
     bit-identical for every value."
  in
  let+ jobs = int_opt "jobs" ~doc in
  match jobs with
  | None -> Rtr_sim.Parallel.env_jobs ()
  | Some n -> get ~code:2 (Rtr_sim.Parallel.check_jobs n)

(* The experiment config: --seed and --topos, plus whichever of --cases,
   --jobs and --mrc-k the subcommand takes; the rest keep
   [Experiments.default_config]'s values. *)
let config_term ?(cases = Term.const None)
    ?(jobs = Term.const Experiments.default_config.Experiments.jobs)
    ?(mrc_k = Term.const None) () =
  let+ cases = cases
  and+ seed = seed_arg
  and+ topos = topos_arg
  and+ jobs = jobs
  and+ mrc_k = mrc_k in
  let base = Experiments.default_config in
  let quota q = Option.value cases ~default:q in
  {
    Experiments.presets =
      (match topos with
      | None -> base.Experiments.presets
      | Some names -> List.map preset (split ',' names));
    recoverable_per_topo = quota base.Experiments.recoverable_per_topo;
    irrecoverable_per_topo = quota base.Experiments.irrecoverable_per_topo;
    seed;
    mrc_k;
    jobs;
  }

let emit ?out ~csv_name text csv =
  print_string text;
  print_newline ();
  match out with
  | None -> ()
  | Some dir ->
      Report.save ~dir ~name:csv_name csv;
      log_line (Printf.sprintf "wrote %s/%s" dir csv_name)

let emit_table ?out (t : Experiments.table) =
  emit ?out ~csv_name:(t.Experiments.id ^ ".csv") (Report.render_table t)
    (Report.table_to_csv t)

(* Figures additionally get a rendered SVG chart next to their CSV. *)
let emit_figure ?out (f : Experiments.figure) =
  emit ?out
    ~csv_name:(f.Experiments.id ^ ".csv")
    (Report.render_figure f) (Report.figure_to_csv f);
  match out with
  | None -> ()
  | Some dir ->
      let name = f.Experiments.id ^ ".svg" in
      Rtr_viz.Chart.save ~title:f.Experiments.title
        ~x_label:f.Experiments.x_label ~y_label:f.Experiments.y_label
        ~series:
          (List.map
             (fun (s : Experiments.series) ->
               (s.Experiments.label, s.Experiments.points))
             f.Experiments.series)
        (Filename.concat dir name);
      log_line (Printf.sprintf "wrote %s/%s" dir name)

(* ------------------------------------------------------------------ *)
(* Subcommands *)

let topologies_cmd =
  cmd "topologies" ~doc:"Table II plus generated-topology details"
  @@
  let+ () = Term.const () in
  emit_table
    (Experiments.table2
       { Experiments.default_config with Experiments.presets = Isp.all });
  List.iter
    (fun p -> Format.printf "%a@." Rtr_topo.Topology.pp (Isp.load p))
    Isp.all

(* The artifacts derived from collected case data, in the paper's
   order: (name, doc, emit out data).  Each is a subcommand and a
   [reduce --artifact] choice. *)
let data_artifacts =
  let fig f out data = emit_figure ?out (f data) in
  let tbl t out data = emit_table ?out (t data) in
  [
    ("fig7", "CDF of phase-1 duration", fig Experiments.fig7);
    ("table3", "Recoverable-case comparison (RTR/FCP/MRC)",
     tbl Experiments.table3);
    ("fig8", "CDF of recovery-path stretch", fig Experiments.fig8);
    ("fig9", "CDF of shortest-path calculations", fig Experiments.fig9);
    ("fig10", "Transmission overhead over time", fig Experiments.fig10);
    ("fig12", "CDF of wasted computation (irrecoverable)",
     fig Experiments.fig12);
    ("fig13", "CDF of wasted transmission (irrecoverable)",
     fig Experiments.fig13);
    ("table4", "Irrecoverable-case waste summary", tbl Experiments.table4);
  ]

(* [all] keeps the paper's order: Table II first, and Fig. 11 (its own
   failure sweep, no collected data) between Figs. 10 and 12. *)
let emit_all config out data =
  emit_table ?out (Experiments.table2 config);
  List.iter
    (fun (name, _, emit) ->
      if name = "fig12" then
        emit_figure ?out (Experiments.fig11 ~log:log_line config);
      emit out data)
    data_artifacts

let data_cmd name doc emit =
  cmd name ~doc
  @@
  let+ config = config_term ~cases:cases_arg ~jobs:jobs_term ~mrc_k:mrc_k_arg ()
  and+ out = out_term in
  emit config out (Experiments.collect ~log:log_line config)

(* The extension and ablation tables (not in the paper): one table from
   a per-topology case count, the base config and [table]'s own
   options. *)
let table_cmd ?(cases = (500, "Recoverable cases per topology.")) name ~doc
    table =
  let default, cases_doc = cases in
  cmd name ~doc
  @@
  let+ config = config_term ()
  and+ cases = count_arg "cases" default ~doc:cases_doc
  and+ out = out_term
  and+ table = table in
  emit_table ?out (table cases config)

let ablation_cmd =
  table_cmd "ablation"
    ~doc:"Constraints 1&2 on/off ablation (not in the paper)"
    (Term.const (fun cases -> Experiments.ablation_constraints ~cases))

let mrc_k_sweep_cmd =
  table_cmd "mrc-k" ~doc:"MRC recovery rate vs configuration count"
    (Term.const (fun cases c -> Experiments.ablation_mrc_k ~cases c))

let variance_cmd =
  table_cmd "variance"
    ~cases:(400, "Recoverable cases per instance.")
    ~doc:"RTR recovery-rate spread across regenerated topology instances"
    (let+ instances =
       count_arg ~docv:"K" "instances" 5 ~doc:"Regenerated instances per AS."
     in
     fun cases -> Experiments.instance_variance ~cases ~instances)

let bidir_cmd =
  table_cmd "bidir"
    ~doc:"Bidirectional-walk extension measurements (not in the paper)"
    (Term.const (fun cases -> Experiments.extension_bidir ~cases))

let flows_cmd =
  cmd "flows"
    ~doc:
      "Flow-level congestion sweep: delivery, stretch and link load per \
       recovery scheme (not in the paper)"
  @@
  let+ config = config_term ~jobs:jobs_term ~mrc_k:mrc_k_arg ()
  and+ flows = count_arg "flows" 125_000 ~doc:"Flows per topology."
  and+ out = out_term in
  let data =
    Experiments.congestion_data ~log:log_line ~flows_per_topo:flows config
  in
  emit_table ?out (Experiments.congestion_table data);
  emit_figure ?out (Experiments.congestion_figure data)

let fig11_cmd =
  cmd "fig11" ~doc:"Percentage of irrecoverable failed paths vs failure radius"
  @@
  let+ config = config_term ~jobs:jobs_term ()
  and+ areas =
    count_arg "areas" 200 ~doc:"Failure areas per radius (the paper used 1000)."
  and+ out = out_term in
  emit_figure ?out
    (Experiments.fig11 ~log:log_line ~areas_per_radius:areas config)

(* [run] and [draw] inspect one scenario drawn from [seed] on a named
   topology, and the first of its cases that [pick] accepts. *)
let inspect ?(pick = Fun.const true) topo_name seed =
  let topo = load_topo topo_name in
  let table = Topo_cache.table (Topo_cache.shared topo) in
  let scenario = Scenario.generate topo table (Rtr_util.Rng.make seed) () in
  (topo, scenario, List.find_opt pick scenario.Scenario.cases)

(* One RTR recovery: the phase-1 walk and the outcome for [dst]. *)
let recover topo damage ~initiator ~trigger ~dst =
  let session = Rtr.start topo damage ~initiator ~trigger () in
  let p1 = Rtr.phase1 session in
  (p1, Rtr.recover session ~dst)

let run_cmd =
  cmd "run" ~doc:"Inspect one random failure scenario in detail"
  @@
  let+ topo_name = topo_arg and+ seed = seed_arg and+ jobs = jobs_term in
  Rtr_obs.Trace.with_ "rtr_sim.run"
    ~attrs:[ ("topo", topo_name); ("seed", string_of_int seed) ]
  @@ fun () ->
  let topo, scenario, first = inspect topo_name seed in
  let g = Rtr_topo.Topology.graph topo in
  Format.printf "topology: %a@." Rtr_topo.Topology.pp topo;
  Format.printf "failure:  %a -> %a@." Rtr_failure.Area.pp
    scenario.Scenario.area Rtr_failure.Damage.pp scenario.Scenario.damage;
  let cases = scenario.Scenario.cases in
  Format.printf "test cases: %d@." (List.length cases);
  let igp =
    Rtr_igp.Convergence.compute Rtr_igp.Igp_config.classic g
      scenario.Scenario.damage
  in
  Format.printf "IGP convergence would finish at %.2f s@."
    (Rtr_igp.Convergence.finished_at igp);
  match first with
  | None -> Format.printf "nothing to recover.@."
  | Some case ->
      let open Scenario in
      Format.printf "@.first case: initiator v%d, trigger v%d, dst v%d (%s)@."
        case.initiator case.trigger case.dst
        (match case.kind with
        | Recoverable -> "recoverable"
        | Irrecoverable -> "irrecoverable");
      let p1, outcome =
        recover topo scenario.damage ~initiator:case.initiator
          ~trigger:case.trigger ~dst:case.dst
      in
      Format.printf "phase 1 walk (%d hops, %.1f ms): %s@." p1.Phase1.hops
        (Rtr_routing.Delay.ms (Phase1.duration_s p1))
        (hops p1.Phase1.walk);
      let links l =
        String.concat ", " (List.map (Rtr_graph.Graph.link_name g) l)
      in
      Format.printf "collected failed links: %s@."
        (links p1.Phase1.failed_links);
      Format.printf "cross links: %s@." (links p1.Phase1.cross_links);
      (match outcome with
      | Rtr.Recovered path ->
          Format.printf "recovered over %a@." Rtr_graph.Path.pp path
      | Rtr.Unreachable_in_view ->
          Format.printf "destination unreachable; packets discarded@."
      | Rtr.False_path { dropped_at; _ } ->
          Format.printf "missed failure; packet dropped at v%d@." dropped_at);
      (* Evaluate the whole scenario against all three schemes, one
         single-case scenario per pool task.  The summary carries no
         jobs-dependent value, so it prints identically at any
         [--jobs]. *)
      let mrc = Rtr_baselines.Mrc.build_auto g in
      let results =
        Rtr_sim.Parallel.map ~jobs
          (fun c ->
            Rtr_sim.Runner.run_scenario ~mrc { scenario with cases = [ c ] })
          (Array.of_list cases)
      in
      let count f =
        Array.fold_left
          (fun acc rs -> acc + List.length (List.filter f rs))
          0 results
      in
      Format.printf "@.all %d cases: RTR %d, FCP %d, MRC %d delivered@."
        (List.length cases)
        (count (fun (r : Rtr_sim.Runner.result) -> r.Rtr_sim.Runner.rtr_recovered))
        (count (fun r -> r.Rtr_sim.Runner.fcp_delivered))
        (count (fun r -> r.Rtr_sim.Runner.mrc_delivered))

let draw_cmd =
  cmd "draw" ~doc:"Render a failure scenario and recovery to SVG"
  @@
  let+ topo_name =
    let doc = "Topology name, or 'paper' for the Fig. 6 example." in
    Arg.(value & opt string "paper" & info [ "topo" ] ~docv:"AS" ~doc)
  and+ seed = seed_arg
  and+ file =
    let doc = "Output SVG file." in
    Arg.(value & opt string "scenario.svg" & info [ "out" ] ~docv:"FILE" ~doc)
  in
  check_writable file;
  let topo, damage, case =
    if topo_name = "paper" then begin
      let module PE = Rtr_topo.Paper_example in
      let topo = PE.topology () in
      let damage =
        Rtr_failure.Damage.of_failed
          (Rtr_topo.Topology.graph topo)
          ~nodes:[ PE.failed_router ] ~links:(PE.cut_links ())
      in
      (topo, damage, Some (PE.initiator, PE.trigger, PE.destination, None))
    end
    else begin
      let open Scenario in
      let topo, scenario, case =
        inspect ~pick:(fun c -> c.kind = Recoverable) topo_name seed
      in
      ( topo,
        scenario.damage,
        Option.map
          (fun c -> (c.initiator, c.trigger, c.dst, Some scenario.area))
          case )
    end
  in
  let overlays, area =
    match case with
    | None -> ([], None)
    | Some (initiator, trigger, dst, area) -> (
        let p1, outcome = recover topo damage ~initiator ~trigger ~dst in
        let walk = Rtr_viz.Svg.Walk p1.Phase1.walk in
        match outcome with
        | Rtr.Recovered path ->
            ([ walk; Rtr_viz.Svg.Route ("recovery path", "#26c", path) ], area)
        | _ -> ([ walk ], area))
  in
  Rtr_viz.Svg.save topo ~damage ?area ~overlays file;
  Format.printf "wrote %s@." file

(* ------------------------------------------------------------------ *)
(* Staged pipeline: generate | evaluate (sharded, resumable) | reduce *)

let stream_arg =
  let doc = "Scenario stream file (see DESIGN.md §15 for the format)." in
  Arg.(
    required
    & opt (some string) None
    & info [ "stream" ] ~docv:"FILE" ~doc)

let generate_cmd =
  cmd "generate"
    ~doc:
      "Stage 1/3: draw failure scenarios until the case quotas are met and \
       write them as a self-describing scenario stream.  Purely sequential \
       and cheap; the expensive evaluation happens in $(b,evaluate)."
  @@
  let+ config = config_term ~cases:cases_arg ~mrc_k:mrc_k_arg ()
  and+ stream = stream_arg in
  check_writable stream;
  let header, records = Experiments.generate config in
  Stream.write stream header records;
  Format.printf "wrote %s: %d scenario records over %d topologies@." stream
    header.Stream.count
    (List.length header.Stream.topos)

let evaluate_cmd =
  cmd "evaluate"
    ~doc:
      "Stage 2/3: evaluate a scenario stream's records against RTR, FCP and \
       MRC on the domain pool, streaming with bounded in-flight work, and \
       append the results to a checkpointed shard file.  Run $(b,K) \
       processes with $(b,--shard) 0..K-1 to spread one stream over \
       machines; re-run with $(b,--resume) after a crash to continue from \
       the last committed record."
  @@
  let+ stream = stream_arg
  and+ out =
    let doc = "Result shard file to write (append-only, checkpointed)." in
    Arg.(required & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  and+ shard =
    let doc = "This process's shard index (0-based)." in
    Arg.(value & opt int 0 & info [ "shard" ] ~docv:"I" ~doc)
  and+ shards =
    let doc =
      "Total shard count; this process evaluates the records with \
       $(i,seq) mod $(docv) = $(b,--shard)."
    in
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"K" ~doc)
  and+ resume =
    let doc =
      "Resume an interrupted evaluation: keep the shard's committed \
       records (truncating any torn tail) and evaluate only what is \
       missing."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  and+ jobs = jobs_term in
  if shards <= 0 || shard < 0 || shard >= shards then
    stop 2 "bad shard coordinates %d/%d" shard shards;
  let header, pull = get ~path:stream (Stream.open_reader stream) in
  (* No [check_writable] on the shard: it would truncate the committed
     records that [--resume] keeps. *)
  let opened =
    shard_data ~path:out (fun () ->
        Shard_store.open_writer ~path:out ~resume ~shard ~shards
          ~count:header.Stream.count)
  in
  match opened with
  | Shard_store.Complete ->
      Format.printf "%s: shard %d/%d already complete@." out shard shards
  | Shard_store.Writer (w, committed) ->
      (* A malformed record ends the stream early; the shard keeps its
         committed records and no footer, so it stays resumable. *)
      let malformed = ref None in
      let rec next () =
        match pull () with
        | None -> None
        | Some (Error e) ->
            malformed := Some e;
            None
        | Some (Ok (r : Stream.scenario)) ->
            if r.Stream.seq mod shards = shard && not (committed r.Stream.seq)
            then Some r
            else next ()
      in
      let mrc =
        Rtr_sim.Pipeline.evaluate ~jobs ~header ~next
          ~emit:(Shard_store.append w) ()
      in
      Option.iter (stop 1 "%s") !malformed;
      Shard_store.finish w ~mrc;
      Format.printf "wrote %s: shard %d/%d complete, %d records (jobs=%d)@."
        out shard shards (Shard_store.records w) jobs

let reduce_cmd =
  cmd "reduce"
    ~doc:
      "Stage 3/3: merge complete result shards into the evaluation's tables \
       and figures.  Deterministic: the output is byte-identical to an \
       in-process run at any shard or job count."
  @@
  let+ stream = stream_arg
  and+ shard_files =
    let doc = "Shard files written by $(b,evaluate) (all of them)." in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"SHARD" ~doc)
  and+ which =
    let doc =
      "Artifact to emit: one of $(b,fig7), $(b,table3), $(b,fig8), \
       $(b,fig9), $(b,fig10), $(b,fig12), $(b,fig13), $(b,table4), or \
       $(b,all) (everything derivable from the shards — $(b,table2) and \
       $(b,fig11) need no collected data and keep their own commands)."
    in
    let names = List.map (fun (name, _, _) -> name) data_artifacts in
    let which = Arg.enum (List.map (fun n -> (n, n)) (names @ [ "all" ])) in
    Arg.(value & opt which "table3" & info [ "artifact" ] ~docv:"NAME" ~doc)
  and+ out = out_term in
  let header = get ~path:stream (Stream.read_header stream) in
  let shards =
    List.map
      (fun path -> shard_data ~path (fun () -> Shard_store.load path))
      shard_files
  in
  let data =
    shard_data (fun () ->
        Experiments.reduce_shards ~log:log_line ~header shards)
  in
  List.iter
    (fun (name, _, emit) ->
      if which = "all" || which = name then emit out data)
    data_artifacts

(* ------------------------------------------------------------------ *)
(* Recovery-map service: offline scenario compiler + lookup server *)

let precompute_cmd =
  let module Enum = Rtr_rmap.Enum in
  let module Compile = Rtr_rmap.Compile in
  cmd "precompute"
    ~doc:
      "Compile a recovery map: enumerate plausible failure scenarios \
       (single links, geographic disc grids, k-link combinations), run the \
       RTR recovery for every test case of each, and pack the answers into \
       one flat binary artifact plus a JSON manifest.  Deterministic: \
       byte-identical output at any $(b,--jobs)."
  @@
  let+ topo_name = topo_arg
  and+ out =
    let doc = "Artifact file to write." in
    Arg.(value & opt string "rmap.bin" & info [ "out" ] ~docv:"FILE" ~doc)
  and+ manifest =
    let doc = "Manifest JSON file (default: $(b,OUT).manifest.json)." in
    Arg.(value & opt (some string) None & info [ "manifest" ] ~docv:"FILE" ~doc)
  and+ singles =
    let doc = "Enumerate every single-link failure (default on)." in
    Arg.(value & opt bool true & info [ "singles" ] ~docv:"BOOL" ~doc)
  and+ grid =
    let doc =
      "Disc-centre grid as $(b,COLSxROWS) over the embedding plane \
       (default 0x0: no discs)."
    in
    Arg.(value & opt string "0x0" & info [ "grid" ] ~docv:"CxR" ~doc)
  and+ radii =
    let doc = "Comma-separated disc radii, one disc per centre per radius." in
    Arg.(value & opt string "" & info [ "radii" ] ~docv:"R,..." ~doc)
  and+ combo_k =
    count_arg ~docv:"K" "combo-k" 0
      ~doc:"Also enumerate all k-link failure sets up to this k."
  and+ combo_budget =
    let doc = "Maximum combination scenarios kept (the rest are counted \
               as dropped, never silently truncated)." in
    count_arg "combo-budget" Enum.default.Enum.combo_budget ~doc
  and+ jobs = jobs_term in
  let topo = load_topo topo_name in
  let grid_cols, grid_rows =
    match List.map int_of_string_opt (split 'x' (String.lowercase_ascii grid))
    with
    | [ Some c; Some r ] -> (count "grid" c, count "grid" r)
    | _ -> stop 2 "bad --grid %s" grid
  in
  let radii =
    values "bad radius" float_of_string_opt radii
    |> List.map
         (in_range "radii"
            ~ok:(fun r -> Float.is_finite r && r >= 0.)
            ~range:"finite and >= 0" (Printf.sprintf "%g"))
  in
  let config =
    {
      Enum.default with
      Enum.singles;
      grid_cols;
      grid_rows;
      radii;
      combo_k;
      combo_budget;
    }
  in
  let manifest_path = Option.value manifest ~default:(out ^ ".manifest.json") in
  check_writable out;
  check_writable manifest_path;
  let result = Compile.run ~log:log_line ~jobs topo config in
  let write path s =
    Out_channel.with_open_bin path (Fun.flip output_string s)
  in
  write out result.Compile.artifact;
  write manifest_path (Rtr_obs.Json.to_string result.Compile.manifest ^ "\n");
  let stats = result.Compile.stats in
  Format.printf
    "%s: %d scenarios (%d deduped, %d dropped, %d empty), %d cases@." topo_name
    result.Compile.n_scenarios stats.Enum.deduped stats.Enum.dropped
    stats.Enum.empty result.Compile.n_cases;
  Format.printf "wrote %s (%d bytes) and %s in %.2f s (jobs=%d)@." out
    (String.length result.Compile.artifact)
    manifest_path result.Compile.wall_s jobs

let serve_cmd =
  let module Store = Rtr_rmap.Store in
  let module Service = Rtr_rmap.Service in
  cmd "serve"
    ~doc:
      "Load a precompiled recovery map and answer failure queries from it: \
       an O(log n) index probe instead of a recovery recomputation, with a \
       reactive fallback on signature misses.  $(b,--bench-lookups) \
       measures raw lookup throughput."
  @@
  let+ map =
    let doc = "Artifact file written by $(b,precompute)." in
    Arg.(value & opt string "rmap.bin" & info [ "map" ] ~docv:"FILE" ~doc)
  and+ topo_name =
    let doc =
      "Fallback topology for signature misses (default: the artifact's own \
       topology when it is a known AS; $(b,none) disables the fallback)."
    in
    Arg.(value & opt (some string) None & info [ "topo" ] ~docv:"AS" ~doc)
  and+ bench =
    let doc = "Drive $(docv) random lookups against the index and report \
               throughput." in
    int_opt "bench-lookups" ~check:(count "bench-lookups") ~doc
  and+ fail =
    let doc = "Failed link ids of the query signature." in
    Arg.(value & opt (some string) None & info [ "fail" ] ~docv:"L,..." ~doc)
  and+ initiator =
    int_opt ~docv:"V" "initiator" ~doc:"Query: recovery initiator."
  and+ trigger =
    int_opt ~docv:"V" "trigger" ~doc:"Query: unreachable default next hop."
  and+ dst = int_opt ~docv:"V" "dst" ~doc:"Query: destination."
  and+ seed = seed_arg in
  let store = get ~path:map (Store.load map) in
  let topo =
    match topo_name with
    | Some "none" -> None
    | Some name -> Some (load_topo name)
    | None ->
        (* Reload the artifact's own topology when we know it, so
           misses fall back to a reactive run out of the box. *)
        Option.map Isp.load (Isp.find (Store.topo_name store))
  in
  let service = get (Service.create ?topo store) in
  Format.printf
    "%s: %s, %d routers, %d links, %d scenarios, %d cases, %d bytes, \
     fallback %s@."
    map (Store.topo_name store) (Store.n_nodes store) (Store.n_links store)
    (Store.n_scenarios store) (Store.n_cases store) (Store.bytes store)
    (if topo = None then "off" else "reactive");
  (match (fail, initiator, trigger, dst) with
  | None, None, None, None -> ()
  | Some fail, Some initiator, Some trigger, Some dst -> (
      let links = values "bad link id" int_of_string_opt fail in
      match Service.query service ~links ~initiator ~trigger ~dst with
      | Error e ->
          Format.printf "query: %s@." e;
          raise (Stop (1, ""))
      | Ok reply ->
          Format.printf "query (v%d, v%d) -> v%d [%s]: %s@." initiator trigger
            dst
            (if reply.Service.from_artifact then "precomputed"
             else "reactive fallback")
            (match reply.Service.kind with
            | Store.Recovered -> "recovered"
            | Store.Unreachable -> "unreachable in view"
            | Store.False_path -> "false path");
          if reply.Service.path <> [||] then
            Format.printf "  route: %s (cost %d)@."
              (hops (Array.to_list reply.Service.path))
              reply.Service.cost;
          if reply.Service.true_cost >= 0 then
            Format.printf "  true shortest: %d%s@." reply.Service.true_cost
              (match reply.Service.stretch with
              | Some s -> Printf.sprintf " (stretch %.3f)" s
              | None -> ""))
  | _ -> stop 2 "a query needs --fail, --initiator, --trigger and --dst");
  Option.iter
    (fun n ->
      let b = Service.bench_lookups service ~n ~seed in
      Format.printf
        "bench: %d lookups (%d hits, %d misses) in %.3f s: %.0f lookups/s, \
         %.0f ns/lookup@."
        b.Service.lookups b.Service.hits b.Service.misses b.Service.wall_s
        b.Service.per_sec b.Service.ns_per_lookup)
    bench

(* ------------------------------------------------------------------ *)
(* Fuzzing: theorem-oracle campaigns and artifact replay *)

let fuzz_cmd =
  let module Campaign = Rtr_check.Campaign in
  let module Oracle = Rtr_check.Oracle in
  let module Spec = Rtr_check.Spec in
  (* One counterexample report for both campaigns; the episode campaign
     leaves out the shrink line. *)
  let print_counterexamples ~shrink =
    List.iter (fun (c : Campaign.counterexample) ->
        Format.printf "case %d: %s: %s@." c.Campaign.index
          c.Campaign.violation.Oracle.oracle c.Campaign.violation.Oracle.detail;
        if shrink then
          Format.printf
            "  shrunk from %d routers / %d links to %d routers / %d links \
             (%d evaluations)@."
            c.Campaign.original.Spec.n
            (List.length c.Campaign.original.Spec.edges)
            c.Campaign.shrunk.Spec.n
            (List.length c.Campaign.shrunk.Spec.edges)
            c.Campaign.shrink_evals;
        Option.iter (Format.printf "  wrote %s@.") c.Campaign.artifact)
  in
  let plural n = if n = 1 then "" else "s" in
  cmd "fuzz"
    ~doc:
      "Fuzz the protocol against the paper's theorems: random topologies and \
       failures checked by invariant and differential oracles, with greedy \
       counterexample shrinking.  Exits 1 when a violation is found."
  @@
  let+ cases =
    count_arg "cases" Campaign.default.Campaign.cases
      ~doc:"Random failure scenarios to generate and check."
  and+ seed = seed_arg
  and+ jobs = jobs_term
  and+ oracles =
    let all = String.concat ", " (List.map (fun o -> o.Oracle.name) Oracle.all) in
    let doc =
      Printf.sprintf
        "Oracle to run (repeatable; default all). One of: %s." all
    in
    Arg.(value & opt_all string [] & info [ "oracle" ] ~docv:"NAME" ~doc)
  and+ inject =
    let doc =
      "Deliberately inject a protocol bug (e.g. $(b,drop-failed-link)) to \
       verify the fuzzer catches, shrinks, and records it.  The campaign is \
       then expected to FAIL."
    in
    Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"BUG" ~doc)
  and+ out =
    out_dir_arg
      ~doc:"Write counterexample artifacts (JSON repro files) into $(docv)."
  and+ episodes =
    let doc =
      "Run an episode-timeline campaign instead of the static oracles: \
       $(docv) is $(b,static), $(b,cascading), $(b,transient), $(b,moving) \
       or $(b,all).  Prints the theorem-survival matrix; exits 1 only on \
       Theorem 1/3 violations (Theorem-2 relaxation violations are the \
       measurement)."
    in
    Arg.(value & opt (some string) None & info [ "episodes" ] ~docv:"KIND" ~doc)
  in
  let oracles =
    if oracles = [] then Oracle.all
    else List.map (parse "unknown oracle" Oracle.find) oracles
  in
  let inject =
    Option.map (parse "unknown injection" Oracle.injection_of_string) inject
  in
  let config =
    {
      Campaign.default with
      Campaign.cases;
      seed;
      jobs;
      oracles;
      inject;
      out_dir = out;
    }
  in
  let outcome =
    match episodes with
    | Some kind ->
        let kinds =
          if kind = "all" then
            Oracle.Episode.[ Static; Cascading; Transient; Moving ]
          else
            [ parse "unknown episode kind" Oracle.Episode.kind_of_string kind ]
        in
        let outcome, rows = Campaign.run_episodes ~log:log_line config ~kinds in
        let failures = outcome.Campaign.failures in
        print_counterexamples ~shrink:false failures;
        List.iter
          (fun (r : Campaign.survival_row) ->
            Option.iter
              (Format.printf "wrote %s thm2 exemplar %s@."
                 (Oracle.Episode.kind_to_string r.Campaign.row_kind))
              r.Campaign.thm2_artifact)
          rows;
        Campaign.pp_matrix Format.std_formatter rows;
        Format.printf "%d specs (%d per kind), %d hard violation%s@."
          outcome.Campaign.cases_run cases (List.length failures)
          (plural (List.length failures));
        outcome
    | None ->
        let outcome = Campaign.run ~log:log_line config in
        let failures = outcome.Campaign.failures in
        print_counterexamples ~shrink:true failures;
        Format.printf "%d cases, %d violation%s, %d oracle%s: %s@."
          outcome.Campaign.cases_run (List.length failures)
          (plural (List.length failures))
          (List.length oracles)
          (plural (List.length oracles))
          (String.concat ", " (List.map (fun o -> o.Oracle.name) oracles));
        outcome
  in
  if outcome.Campaign.failures <> [] then raise (Stop (1, ""))

let replay_cmd =
  let module Campaign = Rtr_check.Campaign in
  let module Oracle = Rtr_check.Oracle in
  (* Whether [file] still behaves as its artifact expects. *)
  let replay file =
    let fail msg =
      Format.printf "%s: FAIL (%s)@." file msg;
      false
    in
    match Result.bind (Campaign.load_file file) Campaign.replay with
    | Ok (Campaign.Matched None) ->
        Format.printf "%s: ok (passes)@." file;
        true
    | Ok (Campaign.Matched (Some v)) ->
        Format.printf "%s: ok (still violates %s: %s)@." file v.Oracle.oracle
          v.Oracle.detail;
        true
    | Ok (Campaign.Mismatched { expected; got }) ->
        fail
          (Printf.sprintf "expected %s, got %s" expected
             (match got with
             | None -> "a pass"
             | Some v -> "a violation: " ^ v.Oracle.detail))
    | Error msg -> fail msg
  in
  cmd "replay"
    ~doc:
      "Re-run recorded fuzz counterexamples (or corpus scenarios) and check \
       each still behaves as its artifact expects."
  @@
  let+ files =
    let doc = "Artifact files written by $(b,fuzz --out) (or the corpus)." in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  if not (List.fold_left (fun ok file -> replay file && ok) true files) then
    raise (Stop (1, ""))

let cmds =
  let data (name, doc, emit) = data_cmd name doc (fun _config -> emit) in
  (topologies_cmd :: List.map data data_artifacts)
  @ [
      data_cmd "all" "Every table and figure of the evaluation" emit_all;
      fig11_cmd;
      ablation_cmd;
      bidir_cmd;
      flows_cmd;
      mrc_k_sweep_cmd;
      variance_cmd;
      generate_cmd;
      evaluate_cmd;
      reduce_cmd;
      run_cmd;
      draw_cmd;
      precompute_cmd;
      serve_cmd;
      fuzz_cmd;
      replay_cmd;
    ]

let () =
  let info =
    Cmd.info "rtr_sim" ~version:"1.0.0"
      ~doc:
        "Reproduction of 'Optimal Recovery from Large-Scale Failures in IP \
         Networks' (ICDCS 2012)"
  in
  exit (try Cmd.eval' ~catch:false (Cmd.group info cmds) with e -> exit_code e)
