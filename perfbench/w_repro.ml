(* repro: the paper's Sec. IV workload, unit = test case.

   Set-up draws the scenario stream ([Pipeline.generate]).  One round
   evaluates it AS by AS ([Pipeline.evaluate], jobs 1), reduces it
   ([Experiments.reduce_stream]) and renders Table III/IV and Figs.
   7-13.  The work is in [Runner]: RTR (sweep, phase 1, batched phase 2
   over Dijkstra/Pqueue/Workspace), FCP and MRC. *)

open Common
module Runner = Rtr_sim.Runner
module Scenario = Rtr_sim.Scenario
module Topo_cache = Rtr_sim.Topo_cache
module Rtr = Rtr_core.Rtr
module Fcp = Rtr_baselines.Fcp
module Mrc = Rtr_baselines.Mrc

let config seed =
  {
    Experiments.presets = Isp.table2;
    recoverable_per_topo = quota;
    irrecoverable_per_topo = quota;
    seed;
    mrc_k = None;
    jobs = 1;
  }

(* Records split per topology, in stream order. *)
let per_topo (header : Stream.header) records =
  let a = Array.make (List.length header.Stream.topos) [] in
  List.iter
    (fun (r : Stream.scenario) -> a.(r.Stream.topo) <- r :: a.(r.Stream.topo))
    records;
  Array.map List.rev a

let reduce_and_render seed header mrc results =
  let data =
    Spans.with_ "experiments.reduce_stream" (fun () ->
        Experiments.reduce_stream ~header ~mrc results)
  in
  Spans.with_ "experiments.render" (fun () ->
      let tables = [ Experiments.table3 data; Experiments.table4 data ] in
      let figs =
        [
          Experiments.fig7 data;
          Experiments.fig8 data;
          Experiments.fig9 data;
          Experiments.fig10 data;
          Experiments.fig11 ~areas_per_radius:5 (config seed);
          Experiments.fig12 data;
          Experiments.fig13 data;
        ]
      in
      List.iter (fun t -> ignore (Report.render_table t)) tables;
      List.iter (fun f -> ignore (Report.render_figure f)) figs);
  data

(* Theorem 2: a recovered recoverable case travels a shortest path of
   the damaged graph, so its stretch is exactly 1. *)
let check_thm2 (r : Runner.result) =
  match r.Runner.case.Scenario.kind with
  | Scenario.Recoverable when r.Runner.rtr_recovered ->
      Bench.check (r.Runner.rtr_stretch = Some 1.0) (fun () ->
          Printf.sprintf "repro: recovered case v%d->v%d has stretch %s"
            r.Runner.case.Scenario.initiator r.Runner.case.Scenario.dst
            (match r.Runner.rtr_stretch with
            | Some s -> string_of_float s
            | None -> "none"))
  | _ -> ()

(* The traced run splits [Runner] by replaying set 0's scenarios
   through its public entry points. *)
let replay (header : Stream.header) records =
  let topos =
    Array.of_list
      (List.map
         (fun (s : Stream.topo_stat) -> Isp.load_by_name s.Stream.as_name)
         header.Stream.topos)
  in
  let mrcs =
    Array.map
      (fun topo ->
        Spans.with_ "mrc.build" (fun () ->
            Pipeline.mrc_for ~mrc_k:None (Rtr_topo.Topology.graph topo)))
      topos
  in
  let scenarios =
    List.map
      (fun (r : Stream.scenario) ->
        let topo = topos.(r.Stream.topo) in
        let table = Topo_cache.table (Topo_cache.shared topo) in
        (r.Stream.topo, Stream.to_scenario ~topo ~table r))
      records
  in
  let words = ref 0. and cases = ref 0 in
  Spans.with_ "replay.runner" (fun () ->
      List.iter
        (fun (ti, sc) ->
          let res, w =
            Spans.with_ "runner.run_scenario" (fun () ->
                Bench.words (fun () -> Runner.run_scenario ~mrc:mrcs.(ti) sc))
          in
          words := !words +. w;
          cases := !cases + List.length res)
        scenarios);
  Spans.with_ "replay.schemes" (fun () ->
      List.iter
        (fun (ti, (sc : Scenario.t)) ->
          let topo = sc.Scenario.topo and damage = sc.Scenario.damage in
          let cases = Array.of_list sc.Scenario.cases in
          List.iter
            (fun ((initiator, trigger), idxs) ->
              let s =
                Spans.with_ "rtr.start" (fun () ->
                    Rtr.start topo damage ~batched:true ~initiator ~trigger ())
              in
              List.iter
                (fun i ->
                  let dst = cases.(i).Scenario.dst in
                  ignore
                    (Spans.with_ "rtr.recover" (fun () -> Rtr.recover s ~dst)))
                idxs;
              List.iter
                (fun i ->
                  let dst = cases.(i).Scenario.dst in
                  ignore
                    (Spans.with_ "fcp.run" (fun () ->
                         Fcp.run topo damage ~initiator ~dst));
                  ignore
                    (Spans.with_ "mrc.recover" (fun () ->
                         Mrc.recover mrcs.(ti) damage ~initiator ~trigger ~dst)))
                idxs)
            (Runner.group_by_session cases (fun (c : Scenario.case) ->
                 (c.Scenario.initiator, c.Scenario.trigger))))
        scenarios);
  let s name span = Bench.time name (Spans.total_ns span /. 1e9) in
  s "mrc.build_s" "mrc.build";
  s "runner.run_scenario_s" "runner.run_scenario";
  Bench.set "runner.words_per_case" (!words /. float_of_int (max 1 !cases));
  let us name span p =
    Bench.time name (Bench.pct (Spans.durations span) p /. 1e3)
  in
  us "runner.scenario_us_p50" "runner.run_scenario" 0.5;
  us "runner.scenario_us_p90" "runner.run_scenario" 0.9;
  us "rtr.start_us_p50" "rtr.start" 0.5;
  us "rtr.recover_us_p50" "rtr.recover" 0.5;
  us "fcp.run_us_p50" "fcp.run" 0.5;
  us "mrc.recover_us_p50" "mrc.recover" 0.5

(* Input sets per run, one stream each: a 20 s run evaluates about
   sixteen distinct streams, which keeps the seed-to-seed spread of
   items_per_s down. *)
let sets = 16

let run ~seed ~seconds =
  let streams =
    Bench.setup ~sets (fun k ->
        let header, records =
          Spans.with_ "pipeline.generate" (fun () ->
              generate (Bench.sub_seed ~seed k))
        in
        (header, records, per_topo header records))
  in
  let digests = Array.make sets None in
  let round _ k =
    let header, _, groups = streams.(k) in
    let results = Array.make header.Stream.count None in
    let mrc =
      Array.to_list groups
      |> List.concat_map (fun recs ->
             Bench.block "pipeline.evaluate" (fun () ->
                 Pipeline.evaluate ~jobs:1 ~header ~next:(stream_list recs)
                   ~emit:(fun (r : Stream.result) ->
                     results.(r.Stream.rseq) <- Some r)
                   ()))
    in
    let results = Array.map Option.get results in
    let data =
      Bench.block "reduce" (fun () ->
          reduce_and_render (Bench.sub_seed ~seed k) header mrc results)
    in
    Array.iter
      (fun (r : Stream.result) ->
        Bench.add_items (List.length r.Stream.results);
        List.iter check_thm2 r.Stream.results)
      results;
    let d = table3_digest data in
    match digests.(k) with
    | None ->
        digests.(k) <- Some d;
        if k = 0 then
          Bench.check
            (match recorded_digest ~workload:"repro" ~seed with
            | Some r -> r = d
            | None -> true)
            (fun () ->
              "repro: table3 differs from the digest recorded for the seed")
    | Some d0 ->
        Bench.check (d = d0) (fun () ->
            Printf.sprintf "repro: table3 of set %d differs between rounds" k)
  in
  let elapsed = Bench.run_rounds ~seconds ~sets round in
  let header, records, _ = streams.(0) in
  Bench.set "experiments.scenarios_generated"
    (float_of_int (Bench.count "experiments.scenarios_generated"));
  Bench.time "pipeline.generate_s"
    (Host.median (Spans.durations "pipeline.generate") /. 1e9);
  if Bench.traced () then replay header records;
  let cases =
    List.fold_left
      (fun acc (t : Stream.topo_stat) ->
        acc + t.Stream.rec_cases + t.Stream.irr_cases)
      0 header.Stream.topos
  in
  (elapsed, cases, [ ("table3_digest", Option.get digests.(0)) ])
