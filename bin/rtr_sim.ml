(* rtr_sim: command-line driver regenerating every table and figure of
   the paper's evaluation, plus single-scenario inspection. *)

open Cmdliner
module Experiments = Rtr_sim.Experiments
module Report = Rtr_sim.Report
module Isp = Rtr_topo.Isp

let log_line s =
  prerr_string ("# " ^ s ^ "\n");
  flush stderr

(* Bad input ends a subcommand with one line on stderr and exit 1,
   never an uncaught exception. *)
let die msg =
  prerr_endline ("rtr_sim: " ^ msg);
  exit 1

let preset name =
  match Isp.find name with
  | Some p -> p
  | None -> die (Printf.sprintf "unknown topology %S" name)

let load_topo name = Isp.load (preset name)

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
  try close_out (open_out path) with Sys_error msg -> die msg

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

let obs_term = Term.(const setup_obs $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* Common options *)

let cases_arg =
  let doc =
    "Recoverable and irrecoverable test cases per topology (the paper used \
     10000)."
  in
  Arg.(value & opt (some int) None & info [ "cases" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Base random seed." in
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc)

let topos_arg =
  let doc =
    "Comma-separated AS names (default: the eight ASes of Table II)."
  in
  Arg.(value & opt (some string) None & info [ "topos" ] ~docv:"AS,..." ~doc)

let out_arg =
  let doc = "Also write CSV artifacts into $(docv)." in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc)

let mrc_k_arg =
  let doc = "Number of MRC configurations (default: smallest feasible)." in
  Arg.(value & opt (some int) None & info [ "mrc-k" ] ~docv:"K" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for scenario evaluation (default: $(b,RTR_JOBS), else \
     the recommended domain count of this machine).  Results are \
     bit-identical for every value."
  in
  Arg.(value & opt (some int) None & info [ "jobs" ] ~docv:"N" ~doc)

let config_of ~cases ~seed ~topos ~mrc_k ~jobs =
  let base = Experiments.default_config () in
  let presets =
    match topos with
    | None -> base.Experiments.presets
    | Some names ->
        String.split_on_char ',' names
        |> List.map String.trim
        |> List.map preset
  in
  let quota q = Option.value cases ~default:q in
  {
    Experiments.presets;
    recoverable_per_topo = quota base.Experiments.recoverable_per_topo;
    irrecoverable_per_topo = quota base.Experiments.irrecoverable_per_topo;
    seed;
    mrc_k;
    jobs = Option.value jobs ~default:base.Experiments.jobs;
  }

let emit ?out ~csv_name text csv =
  print_string text;
  print_newline ();
  match out with
  | None -> ()
  | Some dir ->
      Report.save ~dir ~name:csv_name csv;
      log_line (Printf.sprintf "wrote %s/%s" dir csv_name)

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
  let run () =
    let config = Experiments.default_config () in
    let t = Experiments.table2 { config with Experiments.presets = Isp.all } in
    print_string (Report.render_table t);
    print_newline ();
    List.iter
      (fun p ->
        let topo = Isp.load p in
        Format.printf "%a@." Rtr_topo.Topology.pp topo)
      Isp.all
  in
  Cmd.v
    (Cmd.info "topologies" ~doc:"Table II plus generated-topology details")
    Term.(const run $ obs_term)

type which =
  | Fig7
  | Table3
  | Fig8
  | Fig9
  | Fig10
  | Fig12
  | Fig13
  | Table4
  | All

let needs_data_cmd which name doc =
  let run () cases seed topos mrc_k jobs out =
    let config = config_of ~cases ~seed ~topos ~mrc_k ~jobs in
    let data = Experiments.collect ~log:log_line config in
    let fig (f : Experiments.figure) = emit_figure ?out f in
    let tbl (t : Experiments.table) =
      emit ?out ~csv_name:(t.Experiments.id ^ ".csv") (Report.render_table t)
        (Report.table_to_csv t)
    in
    (match which with
    | Fig7 -> fig (Experiments.fig7 data)
    | Table3 -> tbl (Experiments.table3 data)
    | Fig8 -> fig (Experiments.fig8 data)
    | Fig9 -> fig (Experiments.fig9 data)
    | Fig10 -> fig (Experiments.fig10 data)
    | Fig12 -> fig (Experiments.fig12 data)
    | Fig13 -> fig (Experiments.fig13 data)
    | Table4 -> tbl (Experiments.table4 data)
    | All ->
        tbl (Experiments.table2 config);
        fig (Experiments.fig7 data);
        tbl (Experiments.table3 data);
        fig (Experiments.fig8 data);
        fig (Experiments.fig9 data);
        fig (Experiments.fig10 data);
        fig (Experiments.fig11 ~log:log_line config);
        fig (Experiments.fig12 data);
        fig (Experiments.fig13 data);
        tbl (Experiments.table4 data))
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ obs_term $ cases_arg $ seed_arg $ topos_arg $ mrc_k_arg
      $ jobs_arg $ out_arg)

let ablation_cmd =
  let cases_arg =
    let doc = "Recoverable cases per topology." in
    Arg.(value & opt int 500 & info [ "cases" ] ~docv:"N" ~doc)
  in
  let run () seed topos cases jobs out =
    let config = config_of ~cases:None ~seed ~topos ~mrc_k:None ~jobs in
    let t = Experiments.ablation_constraints ~cases config in
    emit ?out ~csv_name:"ablation_constraints.csv" (Report.render_table t)
      (Report.table_to_csv t)
  in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:"Constraints 1&2 on/off ablation (not in the paper)")
    Term.(
      const run $ obs_term $ seed_arg $ topos_arg $ cases_arg $ jobs_arg
      $ out_arg)

let mrc_k_sweep_cmd =
  let cases_arg =
    let doc = "Recoverable cases per topology." in
    Arg.(value & opt int 500 & info [ "cases" ] ~docv:"N" ~doc)
  in
  let run () seed topos cases jobs out =
    let config = config_of ~cases:None ~seed ~topos ~mrc_k:None ~jobs in
    let t = Experiments.ablation_mrc_k ~cases config in
    emit ?out ~csv_name:"ablation_mrc_k.csv" (Report.render_table t)
      (Report.table_to_csv t)
  in
  Cmd.v
    (Cmd.info "mrc-k" ~doc:"MRC recovery rate vs configuration count")
    Term.(
      const run $ obs_term $ seed_arg $ topos_arg $ cases_arg $ jobs_arg
      $ out_arg)

let variance_cmd =
  let cases_arg =
    let doc = "Recoverable cases per instance." in
    Arg.(value & opt int 400 & info [ "cases" ] ~docv:"N" ~doc)
  in
  let instances_arg =
    let doc = "Regenerated instances per AS." in
    Arg.(value & opt int 5 & info [ "instances" ] ~docv:"K" ~doc)
  in
  let run () seed topos cases instances jobs out =
    let config = config_of ~cases:None ~seed ~topos ~mrc_k:None ~jobs in
    let t = Experiments.instance_variance ~cases ~instances config in
    emit ?out ~csv_name:"instance_variance.csv" (Report.render_table t)
      (Report.table_to_csv t)
  in
  Cmd.v
    (Cmd.info "variance"
       ~doc:"RTR recovery-rate spread across regenerated topology instances")
    Term.(
      const run $ obs_term $ seed_arg $ topos_arg $ cases_arg $ instances_arg
      $ jobs_arg $ out_arg)

let bidir_cmd =
  let cases_arg =
    let doc = "Recoverable cases per topology." in
    Arg.(value & opt int 500 & info [ "cases" ] ~docv:"N" ~doc)
  in
  let run () seed topos cases jobs out =
    let config = config_of ~cases:None ~seed ~topos ~mrc_k:None ~jobs in
    let t = Experiments.extension_bidir ~cases config in
    emit ?out ~csv_name:"extension_bidir.csv" (Report.render_table t)
      (Report.table_to_csv t)
  in
  Cmd.v
    (Cmd.info "bidir"
       ~doc:"Bidirectional-walk extension measurements (not in the paper)")
    Term.(
      const run $ obs_term $ seed_arg $ topos_arg $ cases_arg $ jobs_arg
      $ out_arg)

let flows_cmd =
  let flows_arg =
    let doc = "Flows per topology (default: REPRO_FLOWS, else 125,000)." in
    Arg.(value & opt (some int) None & info [ "flows" ] ~docv:"N" ~doc)
  in
  let run () seed topos mrc_k jobs flows out =
    let config = config_of ~cases:None ~seed ~topos ~mrc_k ~jobs in
    let data =
      Experiments.congestion_data ~log:log_line ?flows_per_topo:flows config
    in
    let t = Experiments.congestion_table data in
    emit ?out ~csv_name:"congestion.csv" (Report.render_table t)
      (Report.table_to_csv t);
    emit_figure ?out (Experiments.congestion_figure data)
  in
  Cmd.v
    (Cmd.info "flows"
       ~doc:
         "Flow-level congestion sweep: delivery, stretch and link load per \
          recovery scheme (not in the paper)")
    Term.(
      const run $ obs_term $ seed_arg $ topos_arg $ mrc_k_arg $ jobs_arg
      $ flows_arg $ out_arg)

let fig11_cmd =
  let areas_arg =
    let doc = "Failure areas per radius (the paper used 1000)." in
    Arg.(value & opt int 200 & info [ "areas" ] ~docv:"N" ~doc)
  in
  let run () seed topos areas jobs out =
    let config = config_of ~cases:None ~seed ~topos ~mrc_k:None ~jobs in
    let f = Experiments.fig11 ~log:log_line ~areas_per_radius:areas config in
    emit_figure ?out f
  in
  Cmd.v
    (Cmd.info "fig11"
       ~doc:"Percentage of irrecoverable failed paths vs failure radius")
    Term.(
      const run $ obs_term $ seed_arg $ topos_arg $ areas_arg $ jobs_arg
      $ out_arg)

let run_cmd =
  let topo_arg =
    let doc = "Topology name." in
    Arg.(value & opt string "AS209" & info [ "topo" ] ~docv:"AS" ~doc)
  in
  let run () topo_name seed jobs =
    let jobs = Option.value jobs ~default:(Rtr_sim.Parallel.env_jobs ()) in
    Rtr_obs.Trace.with_ "rtr_sim.run"
      ~attrs:[ ("topo", topo_name); ("seed", string_of_int seed) ]
    @@ fun () ->
    let topo = load_topo topo_name in
    let g = Rtr_topo.Topology.graph topo in
    let cache = Rtr_sim.Topo_cache.shared topo in
    let table = Rtr_sim.Topo_cache.table cache in
    let rng = Rtr_util.Rng.make seed in
    let scenario = Rtr_sim.Scenario.generate topo table rng () in
    Format.printf "topology: %a@." Rtr_topo.Topology.pp topo;
    Format.printf "failure:  %a -> %a@." Rtr_failure.Area.pp
      scenario.Rtr_sim.Scenario.area Rtr_failure.Damage.pp
      scenario.Rtr_sim.Scenario.damage;
    let cases = scenario.Rtr_sim.Scenario.cases in
    Format.printf "test cases: %d@." (List.length cases);
    let igp =
      Rtr_igp.Convergence.compute Rtr_igp.Igp_config.classic g
        scenario.Rtr_sim.Scenario.damage
    in
    Format.printf "IGP convergence would finish at %.2f s@."
      (Rtr_igp.Convergence.finished_at igp);
    match cases with
    | [] -> Format.printf "nothing to recover.@."
    | case :: _ ->
        let open Rtr_sim.Scenario in
        Format.printf "@.first case: initiator v%d, trigger v%d, dst v%d (%s)@."
          case.initiator case.trigger case.dst
          (match case.kind with
          | Recoverable -> "recoverable"
          | Irrecoverable -> "irrecoverable");
        let session =
          Rtr_core.Rtr.start topo scenario.damage ~initiator:case.initiator
            ~trigger:case.trigger ()
        in
        let p1 = Rtr_core.Rtr.phase1 session in
        Format.printf "phase 1 walk (%d hops, %.1f ms): %s@."
          p1.Rtr_core.Phase1.hops
          (Rtr_routing.Delay.ms (Rtr_core.Phase1.duration_s p1))
          (String.concat " -> "
             (List.map (Printf.sprintf "v%d") p1.Rtr_core.Phase1.walk));
        Format.printf "collected failed links: %s@."
          (String.concat ", "
             (List.map (Rtr_graph.Graph.link_name g)
                p1.Rtr_core.Phase1.failed_links));
        Format.printf "cross links: %s@."
          (String.concat ", "
             (List.map (Rtr_graph.Graph.link_name g)
                p1.Rtr_core.Phase1.cross_links));
        (match Rtr_core.Rtr.recover session ~dst:case.dst with
        | Rtr_core.Rtr.Recovered path ->
            Format.printf "recovered over %a@." Rtr_graph.Path.pp path
        | Rtr_core.Rtr.Unreachable_in_view ->
            Format.printf "destination unreachable; packets discarded@."
        | Rtr_core.Rtr.False_path { dropped_at; _ } ->
            Format.printf "missed failure; packet dropped at v%d@." dropped_at);
        (* Evaluate the whole scenario against all three schemes, one
           single-case scenario per pool task.  The summary carries no
           jobs-dependent value, so it prints identically at any
           [--jobs]. *)
        let mrc = Rtr_baselines.Mrc.build_auto g in
        let results =
          Rtr_sim.Parallel.map ~jobs
            (fun c ->
              Rtr_sim.Runner.run_scenario ~mrc
                { scenario with Rtr_sim.Scenario.cases = [ c ] })
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
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Inspect one random failure scenario in detail")
    Term.(const run $ obs_term $ topo_arg $ seed_arg $ jobs_arg)

let draw_cmd =
  let topo_arg =
    let doc = "Topology name, or 'paper' for the Fig. 6 example." in
    Arg.(value & opt string "paper" & info [ "topo" ] ~docv:"AS" ~doc)
  in
  let file_arg =
    let doc = "Output SVG file." in
    Arg.(value & opt string "scenario.svg" & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let run () topo_name seed file =
    let topo, damage, case =
      if topo_name = "paper" then begin
        let module PE = Rtr_topo.Paper_example in
        let topo = PE.topology () in
        let g = Rtr_topo.Topology.graph topo in
        let damage =
          Rtr_failure.Damage.of_failed g ~nodes:[ PE.failed_router ]
            ~links:(PE.cut_links ())
        in
        ( topo,
          damage,
          Some (PE.initiator, PE.trigger, PE.destination, None) )
      end
      else begin
        let topo = load_topo topo_name in
        let g = Rtr_topo.Topology.graph topo in
        let table = Rtr_routing.Route_table.compute (Rtr_graph.View.full g) in
        let rng = Rtr_util.Rng.make seed in
        let scenario = Rtr_sim.Scenario.generate topo table rng () in
        let case =
          List.find_opt
            (fun (c : Rtr_sim.Scenario.case) ->
              c.Rtr_sim.Scenario.kind = Rtr_sim.Scenario.Recoverable)
            scenario.Rtr_sim.Scenario.cases
          |> Option.map (fun (c : Rtr_sim.Scenario.case) ->
                 ( c.Rtr_sim.Scenario.initiator,
                   c.Rtr_sim.Scenario.trigger,
                   c.Rtr_sim.Scenario.dst,
                   Some scenario.Rtr_sim.Scenario.area ))
        in
        (topo, scenario.Rtr_sim.Scenario.damage, case)
      end
    in
    let overlays, area =
      match case with
      | None -> ([], None)
      | Some (initiator, trigger, dst, area) -> (
          let session = Rtr_core.Rtr.start topo damage ~initiator ~trigger () in
          let p1 = Rtr_core.Rtr.phase1 session in
          let walk = Rtr_viz.Svg.Walk p1.Rtr_core.Phase1.walk in
          match Rtr_core.Rtr.recover session ~dst with
          | Rtr_core.Rtr.Recovered path ->
              ([ walk; Rtr_viz.Svg.Route ("recovery path", "#26c", path) ], area)
          | _ -> ([ walk ], area))
    in
    Rtr_viz.Svg.save topo ~damage ?area ~overlays file;
    Format.printf "wrote %s@." file
  in
  Cmd.v
    (Cmd.info "draw" ~doc:"Render a failure scenario and recovery to SVG")
    Term.(const run $ obs_term $ topo_arg $ seed_arg $ file_arg)

(* ------------------------------------------------------------------ *)
(* Staged pipeline: generate | evaluate (sharded, resumable) | reduce *)

let stream_arg =
  let doc = "Scenario stream file (see DESIGN.md §15 for the format)." in
  Arg.(
    required
    & opt (some string) None
    & info [ "stream" ] ~docv:"FILE" ~doc)

let generate_cmd =
  let run () cases seed topos mrc_k stream =
    let config = config_of ~cases ~seed ~topos ~mrc_k ~jobs:None in
    check_writable stream;
    let header, records =
      Rtr_sim.Pipeline.generate ~presets:config.Experiments.presets
        ~rec_quota:config.Experiments.recoverable_per_topo
        ~irr_quota:config.Experiments.irrecoverable_per_topo
        ~seed:config.Experiments.seed ~mrc_k:config.Experiments.mrc_k ()
    in
    Rtr_sim.Stream.write stream header records;
    Format.printf "wrote %s: %d scenario records over %d topologies@." stream
      header.Rtr_sim.Stream.count
      (List.length header.Rtr_sim.Stream.topos)
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:
         "Stage 1/3: draw failure scenarios until the case quotas are met \
          and write them as a self-describing scenario stream.  Purely \
          sequential and cheap; the expensive evaluation happens in \
          $(b,evaluate).")
    Term.(
      const run $ obs_term $ cases_arg $ seed_arg $ topos_arg $ mrc_k_arg
      $ stream_arg)

let evaluate_cmd =
  let out_arg =
    let doc = "Result shard file to write (append-only, checkpointed)." in
    Arg.(required & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let shard_arg =
    let doc = "This process's shard index (0-based)." in
    Arg.(value & opt int 0 & info [ "shard" ] ~docv:"I" ~doc)
  in
  let shards_arg =
    let doc =
      "Total shard count; this process evaluates the records with \
       $(i,seq) mod $(docv) = $(b,--shard)."
    in
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"K" ~doc)
  in
  let resume_arg =
    let doc =
      "Resume an interrupted evaluation: keep the shard's committed \
       records (truncating any torn tail) and evaluate only what is \
       missing."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let run () stream out shard shards resume jobs =
    let jobs = Option.value jobs ~default:(Rtr_sim.Parallel.env_jobs ()) in
    if shards <= 0 || shard < 0 || shard >= shards then begin
      prerr_endline
        (Printf.sprintf "rtr_sim: bad shard coordinates %d/%d" shard shards);
      exit 2
    end;
    let header, pull =
      match Rtr_sim.Stream.open_reader stream with
      | Ok r -> r
      | Error e -> die e
    in
    match
      Rtr_sim.Shard_store.open_writer ~path:out ~resume ~shard ~shards
        ~count:header.Rtr_sim.Stream.count
    with
    | Rtr_sim.Shard_store.Complete ->
        Format.printf "%s: shard %d/%d already complete@." out shard shards
    | Rtr_sim.Shard_store.Writer (w, committed) ->
        (* A malformed record ends the stream early; the shard keeps
           its committed records and no footer, so it stays
           resumable. *)
        let malformed = ref None in
        let rec next () =
          match pull () with
          | None -> None
          | Some (Error e) ->
              malformed := Some e;
              None
          | Some (Ok (r : Rtr_sim.Stream.scenario)) ->
              if
                r.Rtr_sim.Stream.seq mod shards = shard
                && not (committed r.Rtr_sim.Stream.seq)
              then Some r
              else next ()
        in
        let mrc =
          Rtr_sim.Pipeline.evaluate ~jobs ~header ~next
            ~emit:(Rtr_sim.Shard_store.append w) ()
        in
        Option.iter die !malformed;
        Rtr_sim.Shard_store.finish w ~mrc;
        Format.printf "wrote %s: shard %d/%d complete, %d records (jobs=%d)@."
          out shard shards (Rtr_sim.Shard_store.records w) jobs
  in
  Cmd.v
    (Cmd.info "evaluate"
       ~doc:
         "Stage 2/3: evaluate a scenario stream's records against RTR, FCP \
          and MRC on the domain pool, streaming with bounded in-flight work, \
          and append the results to a checkpointed shard file.  Run $(b,K) \
          processes with $(b,--shard) 0..K-1 to spread one stream over \
          machines; re-run with $(b,--resume) after a crash to continue \
          from the last committed record.")
    Term.(
      const run $ obs_term $ stream_arg $ out_arg $ shard_arg $ shards_arg
      $ resume_arg $ jobs_arg)

let reduce_cmd =
  let shards_arg =
    let doc = "Shard files written by $(b,evaluate) (all of them)." in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"SHARD" ~doc)
  in
  let artifact_arg =
    let doc =
      "Artifact to emit: one of $(b,fig7), $(b,table3), $(b,fig8), \
       $(b,fig9), $(b,fig10), $(b,fig12), $(b,fig13), $(b,table4), or \
       $(b,all) (everything derivable from the shards — $(b,table2) and \
       $(b,fig11) need no collected data and keep their own commands)."
    in
    let which =
      Arg.enum
        [
          ("fig7", Fig7);
          ("table3", Table3);
          ("fig8", Fig8);
          ("fig9", Fig9);
          ("fig10", Fig10);
          ("fig12", Fig12);
          ("fig13", Fig13);
          ("table4", Table4);
          ("all", All);
        ]
    in
    Arg.(value & opt which Table3 & info [ "artifact" ] ~docv:"NAME" ~doc)
  in
  let run () stream shard_files which out =
    let header =
      match Rtr_sim.Stream.read_header stream with
      | Ok h -> h
      | Error e -> die e
    in
    let shards = List.map Rtr_sim.Shard_store.load shard_files in
    let data = Experiments.reduce_shards ~log:log_line ~header shards in
    let fig (f : Experiments.figure) = emit_figure ?out f in
    let tbl (t : Experiments.table) =
      emit ?out ~csv_name:(t.Experiments.id ^ ".csv") (Report.render_table t)
        (Report.table_to_csv t)
    in
    match which with
    | Fig7 -> fig (Experiments.fig7 data)
    | Table3 -> tbl (Experiments.table3 data)
    | Fig8 -> fig (Experiments.fig8 data)
    | Fig9 -> fig (Experiments.fig9 data)
    | Fig10 -> fig (Experiments.fig10 data)
    | Fig12 -> fig (Experiments.fig12 data)
    | Fig13 -> fig (Experiments.fig13 data)
    | Table4 -> tbl (Experiments.table4 data)
    | All ->
        fig (Experiments.fig7 data);
        tbl (Experiments.table3 data);
        fig (Experiments.fig8 data);
        fig (Experiments.fig9 data);
        fig (Experiments.fig10 data);
        fig (Experiments.fig12 data);
        fig (Experiments.fig13 data);
        tbl (Experiments.table4 data)
  in
  Cmd.v
    (Cmd.info "reduce"
       ~doc:
         "Stage 3/3: merge complete result shards into the evaluation's \
          tables and figures.  Deterministic: the output is byte-identical \
          to an in-process run at any shard or job count.")
    Term.(
      const run $ obs_term $ stream_arg $ shards_arg $ artifact_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* Microbenchmark: the SPT hot path, scratch vs workspace, plus a
   repeated-destination recovery so the smoke gate can assert the
   phase-2 per-destination cache actually hits. *)

let microbench_cmd =
  let module Graph = Rtr_graph.Graph in
  let module View = Rtr_graph.View in
  let module Dijkstra = Rtr_graph.Dijkstra in
  let topo_arg =
    let doc = "Topology name." in
    Arg.(value & opt string "AS209" & info [ "topo" ] ~docv:"AS" ~doc)
  in
  let iters_arg =
    let doc = "Sweeps over all roots per SPT variant." in
    Arg.(value & opt int 40 & info [ "iters" ] ~docv:"N" ~doc)
  in
  let run () topo_name iters seed =
    Rtr_obs.Trace.with_ "rtr_sim.microbench" ~attrs:[ ("topo", topo_name) ]
    @@ fun () ->
    let topo = load_topo topo_name in
    let g = Rtr_topo.Topology.graph topo in
    let n = Graph.n_nodes g in
    let full = View.full g in
    let time f =
      let t0 = Rtr_obs.Trace.now () in
      f ();
      Rtr_obs.Trace.now () -. t0
    in
    let per_spt s = s /. float_of_int (iters * n) *. 1e9 in
    (* Scratch: every run allocates four label arrays and a heap. *)
    let scratch_s =
      time (fun () ->
          for _ = 1 to iters do
            for root = 0 to n - 1 do
              ignore (Dijkstra.spt full ~root ())
            done
          done)
    in
    (* Workspace: one arena, reused for every run. *)
    let workspace = Dijkstra.Workspace.create () in
    let ws_s =
      time (fun () ->
          for _ = 1 to iters do
            for root = 0 to n - 1 do
              ignore (Dijkstra.spt ~workspace full ~root ())
            done
          done)
    in
    (* Route tables: one workspace To_root tree per destination. *)
    let table_reps = 3 in
    let table_s =
      time (fun () ->
          for _ = 1 to table_reps do
            ignore (Rtr_routing.Route_table.compute full)
          done)
    in
    let per_tbl s = s /. float_of_int table_reps *. 1e3 in
    Rtr_obs.Metrics.Gauge.set
      (Rtr_obs.Metrics.gauge "microbench.spt_scratch_ns")
      (per_spt scratch_s);
    Rtr_obs.Metrics.Gauge.set
      (Rtr_obs.Metrics.gauge "microbench.spt_ws_ns")
      (per_spt ws_s);
    Rtr_obs.Metrics.Gauge.set
      (Rtr_obs.Metrics.gauge "microbench.spt_ws_speedup")
      (scratch_s /. ws_s);
    Rtr_obs.Metrics.Gauge.set
      (Rtr_obs.Metrics.gauge "microbench.route_table_ms")
      (per_tbl table_s);
    Format.printf "%s: %d nodes, %d links, %d SPT runs per variant@."
      topo_name n (Graph.n_links g) (iters * n);
    Format.printf "  spt/scratch     %8.0f ns/run@." (per_spt scratch_s);
    Format.printf "  spt/workspace   %8.0f ns/run  (%.2fx)@." (per_spt ws_s)
      (scratch_s /. ws_s);
    Format.printf "  route-table     %8.2f ms@." (per_tbl table_s);
    (* Repeated-destination smoke: recover a destination, then ask the
       session for its recovery distance — the second query must be a
       phase2.cache_hits, not a new calculation. *)
    let cache = Rtr_sim.Topo_cache.shared topo in
    let table = Rtr_sim.Topo_cache.table cache in
    let rec scenario_with_cases attempt =
      if attempt > 20 then None
      else
        let rng = Rtr_util.Rng.make (seed + attempt) in
        let s = Rtr_sim.Scenario.generate topo table rng () in
        if s.Rtr_sim.Scenario.cases = [] then scenario_with_cases (attempt + 1)
        else Some s
    in
    match scenario_with_cases 0 with
    | None -> log_line "no non-empty scenario found; cache smoke skipped"
    | Some scenario ->
        let case = List.hd scenario.Rtr_sim.Scenario.cases in
        let open Rtr_sim.Scenario in
        let session =
          Rtr_core.Rtr.start topo scenario.damage ~initiator:case.initiator
            ~trigger:case.trigger ()
        in
        ignore (Rtr_core.Rtr.recover session ~dst:case.dst);
        ignore (Rtr_core.Rtr.recovery_distance session ~dst:case.dst);
        Format.printf
          "cache smoke: dst v%d queried twice, sp_calculations = %d@." case.dst
          (Rtr_core.Rtr.sp_calculations session)
  in
  Cmd.v
    (Cmd.info "microbench"
       ~doc:
         "Time the SPT hot path (scratch allocation vs reusable workspace, \
          route tables) and smoke-test the phase-2 destination cache.  \
          Pair with --metrics to record the numbers.")
    Term.(const run $ obs_term $ topo_arg $ iters_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* Recovery-map service: offline scenario compiler + lookup server *)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let precompute_cmd =
  let module Enum = Rtr_rmap.Enum in
  let topo_arg =
    let doc = "Topology name." in
    Arg.(value & opt string "AS209" & info [ "topo" ] ~docv:"AS" ~doc)
  in
  let out_arg =
    let doc = "Artifact file to write." in
    Arg.(value & opt string "rmap.bin" & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let manifest_arg =
    let doc = "Manifest JSON file (default: $(b,OUT).manifest.json)." in
    Arg.(value & opt (some string) None & info [ "manifest" ] ~docv:"FILE" ~doc)
  in
  let singles_arg =
    let doc = "Enumerate every single-link failure (default on)." in
    Arg.(value & opt bool true & info [ "singles" ] ~docv:"BOOL" ~doc)
  in
  let grid_arg =
    let doc =
      "Disc-centre grid as $(b,COLSxROWS) over the embedding plane \
       (default 0x0: no discs)."
    in
    Arg.(value & opt string "0x0" & info [ "grid" ] ~docv:"CxR" ~doc)
  in
  let radii_arg =
    let doc = "Comma-separated disc radii, one disc per centre per radius." in
    Arg.(value & opt string "" & info [ "radii" ] ~docv:"R,..." ~doc)
  in
  let combo_k_arg =
    let doc = "Also enumerate all k-link failure sets up to this k." in
    Arg.(value & opt int 0 & info [ "combo-k" ] ~docv:"K" ~doc)
  in
  let combo_budget_arg =
    let doc = "Maximum combination scenarios kept (the rest are counted \
               as dropped, never silently truncated)." in
    Arg.(value & opt int Enum.default.Enum.combo_budget
         & info [ "combo-budget" ] ~docv:"N" ~doc)
  in
  let run () topo_name out manifest singles grid radii combo_k combo_budget
      jobs =
    let jobs = Option.value jobs ~default:(Rtr_sim.Parallel.env_jobs ()) in
    let topo = load_topo topo_name in
    let grid_cols, grid_rows =
      match String.split_on_char 'x' (String.lowercase_ascii grid) with
      | [ c; r ] -> (
          try (int_of_string (String.trim c), int_of_string (String.trim r))
          with Failure _ ->
            prerr_endline ("rtr_sim: bad --grid " ^ grid);
            exit 2)
      | _ ->
          prerr_endline ("rtr_sim: bad --grid " ^ grid);
          exit 2
    in
    let radii =
      if String.trim radii = "" then []
      else
        String.split_on_char ',' radii
        |> List.map (fun r ->
               try float_of_string (String.trim r)
               with Failure _ ->
                 prerr_endline ("rtr_sim: bad radius " ^ r);
                 exit 2)
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
    check_writable out;
    let result = Rtr_rmap.Compile.run ~log:log_line ~jobs topo config in
    write_file out result.Rtr_rmap.Compile.artifact;
    let manifest_path =
      Option.value manifest ~default:(out ^ ".manifest.json")
    in
    write_file manifest_path
      (Rtr_obs.Json.to_string result.Rtr_rmap.Compile.manifest ^ "\n");
    let stats = result.Rtr_rmap.Compile.stats in
    Format.printf
      "%s: %d scenarios (%d deduped, %d dropped, %d empty), %d cases@."
      topo_name result.Rtr_rmap.Compile.n_scenarios stats.Enum.deduped
      stats.Enum.dropped stats.Enum.empty result.Rtr_rmap.Compile.n_cases;
    Format.printf "wrote %s (%d bytes) and %s in %.2f s (jobs=%d)@." out
      (String.length result.Rtr_rmap.Compile.artifact)
      manifest_path result.Rtr_rmap.Compile.wall_s jobs
  in
  Cmd.v
    (Cmd.info "precompute"
       ~doc:
         "Compile a recovery map: enumerate plausible failure scenarios \
          (single links, geographic disc grids, k-link combinations), run \
          the RTR recovery for every test case of each, and pack the \
          answers into one flat binary artifact plus a JSON manifest.  \
          Deterministic: byte-identical output at any $(b,--jobs).")
    Term.(
      const run $ obs_term $ topo_arg $ out_arg $ manifest_arg $ singles_arg
      $ grid_arg $ radii_arg $ combo_k_arg $ combo_budget_arg $ jobs_arg)

let serve_cmd =
  let module Store = Rtr_rmap.Store in
  let module Service = Rtr_rmap.Service in
  let map_arg =
    let doc = "Artifact file written by $(b,precompute)." in
    Arg.(value & opt string "rmap.bin" & info [ "map" ] ~docv:"FILE" ~doc)
  in
  let topo_arg =
    let doc =
      "Fallback topology for signature misses (default: the artifact's own \
       topology when it is a known AS; $(b,none) disables the fallback)."
    in
    Arg.(value & opt (some string) None & info [ "topo" ] ~docv:"AS" ~doc)
  in
  let bench_arg =
    let doc = "Drive $(docv) random lookups against the index and report \
               throughput." in
    Arg.(value & opt (some int) None & info [ "bench-lookups" ] ~docv:"N" ~doc)
  in
  let fail_arg =
    let doc = "Failed link ids of the query signature." in
    Arg.(value & opt (some string) None & info [ "fail" ] ~docv:"L,..." ~doc)
  in
  let initiator_arg =
    let doc = "Query: recovery initiator." in
    Arg.(value & opt (some int) None & info [ "initiator" ] ~docv:"V" ~doc)
  in
  let trigger_arg =
    let doc = "Query: unreachable default next hop." in
    Arg.(value & opt (some int) None & info [ "trigger" ] ~docv:"V" ~doc)
  in
  let dst_arg =
    let doc = "Query: destination." in
    Arg.(value & opt (some int) None & info [ "dst" ] ~docv:"V" ~doc)
  in
  let run () map topo_name bench fail initiator trigger dst seed =
    match Store.load map with
    | Error e -> die (map ^ ": " ^ e)
    | Ok store -> (
        let topo =
          match topo_name with
          | Some "none" -> None
          | Some name -> Some (load_topo name)
          | None ->
              (* Reload the artifact's own topology when we know it, so
                 misses fall back to a reactive run out of the box. *)
              Option.map Isp.load (Isp.find (Store.topo_name store))
        in
        match Service.create ?topo store with
        | Error e -> die e
        | Ok service ->
            Format.printf
              "%s: %s, %d routers, %d links, %d scenarios, %d cases, %d \
               bytes, fallback %s@."
              map (Store.topo_name store) (Store.n_nodes store)
              (Store.n_links store) (Store.n_scenarios store)
              (Store.n_cases store) (Store.bytes store)
              (if topo = None then "off" else "reactive");
            (match (fail, initiator, trigger, dst) with
            | None, None, None, None -> ()
            | Some fail, Some initiator, Some trigger, Some dst -> (
                let links =
                  if String.trim fail = "" then []
                  else
                    String.split_on_char ',' fail
                    |> List.map (fun s ->
                           try int_of_string (String.trim s)
                           with Failure _ ->
                             prerr_endline ("rtr_sim: bad link id " ^ s);
                             exit 2)
                in
                match Service.query service ~links ~initiator ~trigger ~dst with
                | Error e ->
                    Format.printf "query: %s@." e;
                    exit 1
                | Ok reply ->
                    Format.printf "query (v%d, v%d) -> v%d [%s]: %s@."
                      initiator trigger dst
                      (if reply.Service.from_artifact then "precomputed"
                       else "reactive fallback")
                      (match reply.Service.kind with
                      | Store.Recovered -> "recovered"
                      | Store.Unreachable -> "unreachable in view"
                      | Store.False_path -> "false path");
                    if reply.Service.path <> [||] then
                      Format.printf "  route: %s (cost %d)@."
                        (String.concat " -> "
                           (Array.to_list
                              (Array.map (Printf.sprintf "v%d")
                                 reply.Service.path)))
                        reply.Service.cost;
                    if reply.Service.true_cost >= 0 then
                      Format.printf "  true shortest: %d%s@."
                        reply.Service.true_cost
                        (match reply.Service.stretch with
                        | Some s -> Printf.sprintf " (stretch %.3f)" s
                        | None -> ""))
            | _ ->
                prerr_endline
                  "rtr_sim: a query needs --fail, --initiator, --trigger \
                   and --dst";
                exit 2);
            Option.iter
              (fun n ->
                let b = Service.bench_lookups service ~n ~seed in
                Format.printf
                  "bench: %d lookups (%d hits, %d misses) in %.3f s: %.0f \
                   lookups/s, %.0f ns/lookup@."
                  b.Service.lookups b.Service.hits b.Service.misses
                  b.Service.wall_s b.Service.per_sec b.Service.ns_per_lookup)
              bench)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Load a precompiled recovery map and answer failure queries from \
          it: an O(log n) index probe instead of a recovery recomputation, \
          with a reactive fallback on signature misses.  \
          $(b,--bench-lookups) measures raw lookup throughput.")
    Term.(
      const run $ obs_term $ map_arg $ topo_arg $ bench_arg $ fail_arg
      $ initiator_arg $ trigger_arg $ dst_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* Fuzzing: theorem-oracle campaigns and artifact replay *)

let fuzz_cmd =
  let module Campaign = Rtr_check.Campaign in
  let module Oracle = Rtr_check.Oracle in
  let cases_arg =
    let doc = "Random failure scenarios to generate and check." in
    Arg.(value & opt int Campaign.default.Campaign.cases
         & info [ "cases" ] ~docv:"N" ~doc)
  in
  let oracle_arg =
    let all = String.concat ", " (List.map (fun o -> o.Oracle.name) Oracle.all) in
    let doc =
      Printf.sprintf
        "Oracle to run (repeatable; default all). One of: %s." all
    in
    Arg.(value & opt_all string [] & info [ "oracle" ] ~docv:"NAME" ~doc)
  in
  let inject_arg =
    let doc =
      "Deliberately inject a protocol bug (e.g. $(b,drop-failed-link)) to \
       verify the fuzzer catches, shrinks, and records it.  The campaign is \
       then expected to FAIL."
    in
    Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"BUG" ~doc)
  in
  let out_arg =
    let doc = "Write counterexample artifacts (JSON repro files) into $(docv)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let episodes_arg =
    let doc =
      "Run an episode-timeline campaign instead of the static oracles: \
       $(docv) is $(b,static), $(b,cascading), $(b,transient), $(b,moving) \
       or $(b,all).  Prints the theorem-survival matrix; exits 1 only on \
       Theorem 1/3 violations (Theorem-2 relaxation violations are the \
       measurement)."
    in
    Arg.(value & opt (some string) None & info [ "episodes" ] ~docv:"KIND" ~doc)
  in
  let run () cases seed jobs oracles inject out episodes =
    let jobs = Option.value jobs ~default:(Rtr_sim.Parallel.env_jobs ()) in
    let oracles =
      match oracles with
      | [] -> Oracle.all
      | names ->
          List.map
            (fun name ->
              match Oracle.find name with
              | Some o -> o
              | None ->
                  prerr_endline ("rtr_sim: unknown oracle " ^ name);
                  exit 2)
            names
    in
    let inject =
      Option.map
        (fun name ->
          match Oracle.injection_of_string name with
          | Some i -> i
          | None ->
              prerr_endline ("rtr_sim: unknown injection " ^ name);
              exit 2)
        inject
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
    (match episodes with
    | None -> ()
    | Some kind_s ->
        let kinds =
          match kind_s with
          | "all" ->
              [
                Oracle.Episode.Static;
                Oracle.Episode.Cascading;
                Oracle.Episode.Transient;
                Oracle.Episode.Moving;
              ]
          | s -> (
              match Oracle.Episode.kind_of_string s with
              | Some Oracle.Episode.Mixed | None ->
                  prerr_endline ("rtr_sim: unknown episode kind " ^ s);
                  exit 2
              | Some k -> [ k ])
        in
        let outcome, rows = Campaign.run_episodes ~log:log_line config ~kinds in
        List.iter
          (fun (c : Campaign.counterexample) ->
            Format.printf "case %d: %s: %s@." c.Campaign.index
              c.Campaign.violation.Oracle.oracle
              c.Campaign.violation.Oracle.detail;
            Option.iter (Format.printf "  wrote %s@.") c.Campaign.artifact)
          outcome.Campaign.failures;
        List.iter
          (fun (r : Campaign.survival_row) ->
            Option.iter
              (Format.printf "wrote %s thm2 exemplar %s@."
                 (Oracle.Episode.kind_to_string r.Campaign.row_kind))
              r.Campaign.thm2_artifact)
          rows;
        Campaign.pp_matrix Format.std_formatter rows;
        Format.printf "%d specs (%d per kind), %d hard violation%s@."
          outcome.Campaign.cases_run config.Campaign.cases
          (List.length outcome.Campaign.failures)
          (if List.length outcome.Campaign.failures = 1 then "" else "s");
        exit (if outcome.Campaign.failures <> [] then 1 else 0));
    let outcome = Campaign.run ~log:log_line config in
    List.iter
      (fun (c : Campaign.counterexample) ->
        Format.printf "case %d: %s: %s@." c.Campaign.index
          c.Campaign.violation.Oracle.oracle c.Campaign.violation.Oracle.detail;
        Format.printf
          "  shrunk from %d routers / %d links to %d routers / %d links (%d \
           evaluations)@."
          c.Campaign.original.Rtr_check.Spec.n
          (List.length c.Campaign.original.Rtr_check.Spec.edges)
          c.Campaign.shrunk.Rtr_check.Spec.n
          (List.length c.Campaign.shrunk.Rtr_check.Spec.edges)
          c.Campaign.shrink_evals;
        Option.iter (Format.printf "  wrote %s@.") c.Campaign.artifact)
      outcome.Campaign.failures;
    let n_fail = List.length outcome.Campaign.failures in
    Format.printf "%d cases, %d violation%s, %d oracle%s: %s@."
      outcome.Campaign.cases_run n_fail
      (if n_fail = 1 then "" else "s")
      (List.length oracles)
      (if List.length oracles = 1 then "" else "s")
      (String.concat ", " (List.map (fun o -> o.Oracle.name) oracles));
    if n_fail > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fuzz the protocol against the paper's theorems: random topologies \
          and failures checked by invariant and differential oracles, with \
          greedy counterexample shrinking.  Exits 1 when a violation is \
          found.")
    Term.(
      const run $ obs_term $ cases_arg $ seed_arg $ jobs_arg $ oracle_arg
      $ inject_arg $ out_arg $ episodes_arg)

let replay_cmd =
  let module Campaign = Rtr_check.Campaign in
  let module Oracle = Rtr_check.Oracle in
  let files_arg =
    let doc = "Artifact files written by $(b,fuzz --out) (or the corpus)." in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let run () files =
    let ok = ref true in
    List.iter
      (fun file ->
        let fail msg =
          ok := false;
          Format.printf "%s: FAIL (%s)@." file msg
        in
        match Result.bind (Campaign.load_file file) Campaign.replay with
        | Ok (Campaign.Matched None) -> Format.printf "%s: ok (passes)@." file
        | Ok (Campaign.Matched (Some v)) ->
            Format.printf "%s: ok (still violates %s: %s)@." file
              v.Oracle.oracle v.Oracle.detail
        | Ok (Campaign.Mismatched { expected; got }) ->
            fail
              (Printf.sprintf "expected %s, got %s" expected
                 (match got with
                 | None -> "a pass"
                 | Some v -> "a violation: " ^ v.Oracle.detail))
        | Error msg -> fail msg)
      files;
    if not !ok then exit 1
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-run recorded fuzz counterexamples (or corpus scenarios) and \
          check each still behaves as its artifact expects.")
    Term.(const run $ obs_term $ files_arg)

let cmds =
  [
    topologies_cmd;
    needs_data_cmd Fig7 "fig7" "CDF of phase-1 duration";
    needs_data_cmd Table3 "table3" "Recoverable-case comparison (RTR/FCP/MRC)";
    needs_data_cmd Fig8 "fig8" "CDF of recovery-path stretch";
    needs_data_cmd Fig9 "fig9" "CDF of shortest-path calculations";
    needs_data_cmd Fig10 "fig10" "Transmission overhead over time";
    fig11_cmd;
    ablation_cmd;
    bidir_cmd;
    flows_cmd;
    mrc_k_sweep_cmd;
    variance_cmd;
    needs_data_cmd Fig12 "fig12" "CDF of wasted computation (irrecoverable)";
    needs_data_cmd Fig13 "fig13" "CDF of wasted transmission (irrecoverable)";
    needs_data_cmd Table4 "table4" "Irrecoverable-case waste summary";
    needs_data_cmd All "all" "Every table and figure of the evaluation";
    generate_cmd;
    evaluate_cmd;
    reduce_cmd;
    run_cmd;
    draw_cmd;
    microbench_cmd;
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
  exit (Cmd.eval (Cmd.group info cmds))
