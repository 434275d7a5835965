module Experiments = Rtr_sim.Experiments
module Report = Rtr_sim.Report
module Isp = Rtr_topo.Isp

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* One small shared collection: 120 cases on the two smallest ASes. *)
let data =
  lazy
    (let config =
       {
         Experiments.presets =
           [ Option.get (Isp.find "AS1239"); Option.get (Isp.find "AS4323") ];
         recoverable_per_topo = 120;
         irrecoverable_per_topo = 120;
         seed = 3;
         mrc_k = None;
         jobs = 1;
       }
     in
     (config, Experiments.collect config))

let test_collect_quotas () =
  let _, data = Lazy.force data in
  Alcotest.(check int) "two topologies" 2 (List.length data);
  List.iter
    (fun (d : Experiments.topo_data) ->
      Alcotest.(check int) "recoverable quota" 120
        (List.length d.Experiments.recoverable);
      Alcotest.(check int) "irrecoverable quota" 120
        (List.length d.Experiments.irrecoverable))
    data

let test_table2 () =
  let config, _ = Lazy.force data in
  let t = Experiments.table2 config in
  Alcotest.(check int) "one row per preset" 2
    (List.length t.Experiments.rows);
  Alcotest.(check (list string)) "first row"
    [ "AS1239"; "52"; "84" ]
    (List.hd t.Experiments.rows)

let cdf_series_ok (f : Experiments.figure) =
  List.iter
    (fun (s : Experiments.series) ->
      let ys = List.map snd s.Experiments.points in
      List.iter
        (fun y ->
          Alcotest.(check bool)
            (s.Experiments.label ^ " y in [0,1]")
            true
            (y >= 0.0 && y <= 1.0))
        ys;
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
        | _ -> true
      in
      Alcotest.(check bool) (s.Experiments.label ^ " monotone") true (mono ys))
    f.Experiments.series

let test_fig7 () =
  let _, data = Lazy.force data in
  let f = Experiments.fig7 data in
  Alcotest.(check int) "one series per AS" 2 (List.length f.Experiments.series);
  cdf_series_ok f

let test_table3_shape_and_claims () =
  let _, data = Lazy.force data in
  let t = Experiments.table3 data in
  Alcotest.(check int) "per-AS plus overall" 3 (List.length t.Experiments.rows);
  List.iter
    (fun row ->
      (* RTR's recovery rate equals its optimal rate (Theorem 2) and
         its max stretch is 1 with exactly one calculation. *)
      let nth i = List.nth row i in
      Alcotest.(check string) "rec = opt" (nth 1) (nth 4);
      Alcotest.(check string) "stretch 1" "1.0" (nth 7);
      Alcotest.(check string) "one calculation" "1" (nth 10))
    t.Experiments.rows

(* Table III's optimal rates compare integer costs.  Rocketfuel weights
   reach 2^30, where a path one unit too long has a stretch of
   1 + 9.3e-10: a float tolerance would call it optimal. *)
let test_table3_optimality_exact () =
  let best = 1 lsl 30 in
  let result cost =
    let some = Some cost and shortest_after = Some best in
    let stretch = Rtr_sim.Runner.stretch_of_cost ~shortest_after some in
    {
      Rtr_sim.Runner.case =
        {
          Rtr_sim.Scenario.initiator = 0;
          trigger = 1;
          dst = 2;
          kind = Rtr_sim.Scenario.Recoverable;
          shortest_after;
        };
      rtr_p1_hops = 0;
      rtr_p1_bytes = [];
      rtr_p1_completed = true;
      rtr_recovered = true;
      rtr_cost = some;
      rtr_stretch = stretch;
      rtr_route_bytes = 0;
      rtr_wasted_tx = 0;
      rtr_calcs = 1;
      fcp_delivered = true;
      fcp_cost = some;
      fcp_stretch = stretch;
      fcp_calcs = 1;
      fcp_hop_bytes = [];
      fcp_wasted_tx = 0;
      mrc_delivered = true;
      mrc_cost = some;
      mrc_stretch = stretch;
    }
  in
  let preset = Option.get (Isp.find "AS1239") in
  let t =
    Experiments.table3
      [
        {
          Experiments.preset;
          topo = Isp.load preset;
          mrc_configs = 0;
          recoverable = [ result best; result (best + 1) ];
          irrecoverable = [];
        };
      ]
  in
  List.iter
    (fun row ->
      List.iter
        (fun (i, scheme) ->
          Alcotest.(check string)
            (Printf.sprintf "%s: one of two cases optimal" scheme)
            "50.0" (List.nth row i))
        [ (4, "RTR"); (5, "FCP"); (6, "MRC") ])
    t.Experiments.rows

let test_fig8_fig9 () =
  let _, data = Lazy.force data in
  let f8 = Experiments.fig8 data in
  cdf_series_ok f8;
  Alcotest.(check bool) "rtr series present" true
    (List.exists (fun s -> s.Experiments.label = "RTR") f8.Experiments.series);
  let f9 = Experiments.fig9 data in
  cdf_series_ok f9;
  (* RTR's CDF is 1 everywhere: always exactly one calculation. *)
  let rtr = List.hd f9.Experiments.series in
  List.iter
    (fun (_, y) -> Alcotest.(check (float 1e-9)) "rtr flat at 1" 1.0 y)
    rtr.Experiments.points

let test_fig10_shape () =
  let _, data = Lazy.force data in
  let f = Experiments.fig10 data in
  Alcotest.(check int) "rtr+fcp per AS" 4 (List.length f.Experiments.series);
  (* RTR's overhead decays: the value at t=1s is below the value while
     phase 1 is still running at t=0.02s. *)
  (* By t = 1 s every phase-1 walk has finished, so RTR's series ends
     exactly at the mean source-route header of the collected cases. *)
  let d = List.hd data in
  let rtr = List.hd f.Experiments.series in
  Alcotest.(check string) "first series is RTR on the first AS"
    ("RTR " ^ d.Experiments.preset.Isp.as_name)
    rtr.Experiments.label;
  let last_y = snd (List.nth rtr.Experiments.points
                      (List.length rtr.Experiments.points - 1)) in
  let expected =
    Rtr_sim.Stats.mean_int
      (List.map (fun r -> r.Rtr_sim.Runner.rtr_route_bytes)
         d.Experiments.recoverable)
  in
  Alcotest.(check (float 1e-6)) "steady state is the route header" expected
    last_y;
  let peak =
    List.fold_left (fun acc (_, y) -> Float.max acc y) 0.0
      rtr.Experiments.points
  in
  Alcotest.(check bool) "phase 1 carries more than steady state" true
    (peak >= last_y)

let test_fig12_fig13_table4 () =
  let _, data = Lazy.force data in
  cdf_series_ok (Experiments.fig12 data);
  cdf_series_ok (Experiments.fig13 data);
  let t4 = Experiments.table4 data in
  Alcotest.(check int) "rows: 2 AS + overall + savings" 4
    (List.length t4.Experiments.rows);
  let overall = List.nth t4.Experiments.rows 2 in
  (* FCP wastes more than RTR on both axes. *)
  let fcp_calc = float_of_string (List.nth overall 2) in
  let rtr_tx = float_of_string (List.nth overall 5) in
  let fcp_tx = float_of_string (List.nth overall 6) in
  Alcotest.(check bool) "fcp computes more" true (fcp_calc > 1.0);
  Alcotest.(check bool) "fcp transmits more" true (fcp_tx > rtr_tx)

let test_fig11_small () =
  let config, _ = Lazy.force data in
  let f =
    Experiments.fig11 ~areas_per_radius:5 ~radii:[ 50.0; 250.0 ] config
  in
  Alcotest.(check int) "series per AS" 2 (List.length f.Experiments.series);
  List.iter
    (fun (s : Experiments.series) ->
      List.iter
        (fun (_, y) ->
          Alcotest.(check bool) "percentage range" true (y >= 0.0 && y <= 100.0))
        s.Experiments.points)
    f.Experiments.series

let test_ablation_constraints_shape () =
  let config, _ = Lazy.force data in
  let t = Experiments.ablation_constraints ~cases:40 config in
  Alcotest.(check int) "row per AS" 2 (List.length t.Experiments.rows);
  List.iter
    (fun row -> Alcotest.(check int) "eight columns" 8 (List.length row))
    t.Experiments.rows

let test_extension_bidir_shape () =
  let config, _ = Lazy.force data in
  let t = Experiments.extension_bidir ~cases:40 config in
  List.iter
    (fun row ->
      (* the merged collection can only help *)
      let f i = float_of_string (List.nth row i) in
      Alcotest.(check bool) "merged E1 >= single E1" true (f 5 >= f 4 -. 1e-9);
      Alcotest.(check bool) "merged recovery >= single" true (f 7 >= f 6 -. 1e-9))
    t.Experiments.rows

let test_ablation_mrc_k_shape () =
  let config, _ = Lazy.force data in
  let t = Experiments.ablation_mrc_k ~cases:40 ~ks:[ 4; 8 ] config in
  Alcotest.(check (list string)) "header" [ "Topology"; "k=4"; "k=8" ]
    t.Experiments.header;
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          if i > 0 && cell <> "infeasible" then
            let v = float_of_string cell in
            Alcotest.(check bool) "percentage" true (v >= 0.0 && v <= 100.0))
        row)
    t.Experiments.rows

let test_instance_variance_shape () =
  let config, _ = Lazy.force data in
  let t = Experiments.instance_variance ~cases:30 ~instances:2 config in
  List.iter
    (fun row ->
      let f i = float_of_string (List.nth row i) in
      Alcotest.(check bool) "min <= mean <= max" true
        (f 2 <= f 1 +. 1e-9 && f 1 <= f 3 +. 1e-9);
      Alcotest.(check (float 1e-6)) "spread = max - min" (f 3 -. f 2) (f 4))
    t.Experiments.rows

(* The tentpole guarantee: collecting on several worker domains yields
   data structurally identical to the sequential collection — same
   cases, same results, same order. *)
let test_jobs_equivalence () =
  let config, seq = Lazy.force data in
  let par = Experiments.collect { config with Experiments.jobs = 4 } in
  Alcotest.(check int) "same topology count" (List.length seq)
    (List.length par);
  List.iter2
    (fun (a : Experiments.topo_data) (b : Experiments.topo_data) ->
      Alcotest.(check string) "same preset" a.Experiments.preset.Isp.as_name
        b.Experiments.preset.Isp.as_name;
      Alcotest.(check int) "same mrc configs" a.Experiments.mrc_configs
        b.Experiments.mrc_configs;
      Alcotest.(check bool) "recoverable results identical" true
        (a.Experiments.recoverable = b.Experiments.recoverable);
      Alcotest.(check bool) "irrecoverable results identical" true
        (a.Experiments.irrecoverable = b.Experiments.irrecoverable))
    seq par

(* The flow sweep builds MRC by the paper tables' rule: an infeasible
   [--mrc-k K] falls back to the smallest feasible k above K, so K=2
   on AS209 (3 configurations in table3) sweeps exactly like K=3. *)
let test_congestion_mrc_fallback () =
  let config, _ = Lazy.force data in
  let as209 = Option.get (Isp.find "AS209") in
  let g = Rtr_topo.Topology.graph (Isp.load as209) in
  Alcotest.(check bool) "k=2 infeasible" true
    (Rtr_baselines.Mrc.build g ~k:2 = None);
  Alcotest.(check int) "table3's MRC" 3
    (Rtr_baselines.Mrc.n_configs
       (Rtr_sim.Pipeline.mrc_for ~mrc_k:(Some 2) g));
  let sweep k =
    Experiments.congestion_data ~flows_per_topo:2000
      ~schemes:[ Rtr_des.Flowsim.Mrc_scheme ]
      { config with Experiments.presets = [ as209 ]; mrc_k = Some k }
  in
  Alcotest.(check bool) "k=2 sweeps like k=3" true (sweep 2 = sweep 3)

(* A damage no scheme recovers a flow from is reported, not hidden: at
   the default seed AS7018's disc breaks flows that have no surviving
   path, so its rows all equal none's; AS1239's does not. *)
let test_congestion_noop_damage_reported () =
  let counter () =
    Option.value ~default:(-1)
      (Rtr_obs.Metrics.Snapshot.counter (Rtr_obs.Metrics.snapshot ())
         "experiments.noop_damages")
  in
  let before = counter () in
  let lines = ref [] in
  let data =
    Experiments.congestion_data
      ~log:(fun l -> lines := l :: !lines)
      ~flows_per_topo:2000
      ~schemes:[ Rtr_des.Flowsim.No_recovery; Rtr_des.Flowsim.Rtr_scheme ]
      {
        Experiments.default_config with
        Experiments.presets =
          [ Option.get (Isp.find "AS7018"); Option.get (Isp.find "AS1239") ];
        jobs = 1;
      }
  in
  Alcotest.(check int) "one no-op damage counted" 1 (counter () - before);
  Alcotest.(check (list string)) "logged for AS7018 only" [ "AS7018" ]
    (List.filter_map
       (fun l ->
         if contains ~affix:"no-op damage" l then
           Some (List.hd (String.split_on_char ':' l))
         else None)
       !lines);
  List.iter
    (fun ((p : Isp.preset), per_scheme) ->
      let recovered =
        List.map (fun (_, s) -> s.Rtr_des.Flowsim.recovered) per_scheme
      in
      Alcotest.(check bool)
        (p.Isp.as_name ^ ": RTR recovers iff the damage is not a no-op")
        (p.Isp.as_name = "AS1239")
        (List.exists (fun r -> r > 0) recovered))
    data

let test_report_rendering () =
  let config, data = Lazy.force data in
  let table_text = Report.render_table (Experiments.table2 config) in
  Alcotest.(check bool) "table mentions AS1239" true
    (contains ~affix:"AS1239" table_text);
  let fig_text = Report.render_figure (Experiments.fig7 data) in
  Alcotest.(check bool) "figure has title" true
    (contains ~affix:"Fig. 7" fig_text);
  let csv = Report.figure_to_csv (Experiments.fig7 data) in
  Alcotest.(check bool) "csv header" true
    (contains ~affix:"AS1239" csv)

let suite =
  [
    Alcotest.test_case "collect quotas" `Slow test_collect_quotas;
    Alcotest.test_case "table2" `Slow test_table2;
    Alcotest.test_case "fig7" `Slow test_fig7;
    Alcotest.test_case "table3 claims" `Slow test_table3_shape_and_claims;
    Alcotest.test_case "table3 optimality is exact" `Quick
      test_table3_optimality_exact;
    Alcotest.test_case "fig8/fig9" `Slow test_fig8_fig9;
    Alcotest.test_case "fig10 shape" `Slow test_fig10_shape;
    Alcotest.test_case "fig12/fig13/table4" `Slow test_fig12_fig13_table4;
    Alcotest.test_case "fig11 small" `Slow test_fig11_small;
    Alcotest.test_case "ablation constraints shape" `Slow
      test_ablation_constraints_shape;
    Alcotest.test_case "extension bidir shape" `Slow test_extension_bidir_shape;
    Alcotest.test_case "ablation mrc-k shape" `Slow test_ablation_mrc_k_shape;
    Alcotest.test_case "instance variance shape" `Slow
      test_instance_variance_shape;
    Alcotest.test_case "jobs=4 equals jobs=1" `Slow test_jobs_equivalence;
    Alcotest.test_case "flows MRC fallback matches table3" `Slow
      test_congestion_mrc_fallback;
    Alcotest.test_case "flows no-op damage reported" `Slow
      test_congestion_noop_damage_reported;
    Alcotest.test_case "report rendering" `Slow test_report_rendering;
  ]
