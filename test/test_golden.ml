(* Golden digests: FNV-1a 64-bit hashes of rendered experiment outputs,
   pinned so a refactor has to prove it leaves every report, artifact
   and simulation result byte-identical.  A digest only changes
   together with a deliberate behaviour change, recorded in the commit
   that updates it. *)

module Experiments = Rtr_sim.Experiments
module Report = Rtr_sim.Report
module Isp = Rtr_topo.Isp
module Compile = Rtr_rmap.Compile
module Enum = Rtr_rmap.Enum
module Netsim = Rtr_des.Netsim
module Damage = Rtr_failure.Damage
module PE = Rtr_topo.Paper_example

let digest = Compile.fnv64_hex
let table t = digest (Report.table_to_csv t)
let figure f = digest (Report.figure_to_csv f)

(* The small collection of [Test_experiments]: AS1239 + AS4323, 120 +
   120 cases, seed 3.  Shared, so the suite collects it once. *)
let data () = snd (Lazy.force Test_experiments.data)
let config () = fst (Lazy.force Test_experiments.data)

let preset name = Option.get (Isp.find name)

let congestion () =
  let config =
    { (config ()) with Experiments.presets = [ preset "AS1239" ] }
  in
  Experiments.congestion_table
    (Experiments.congestion_data ~flows_per_topo:3000 config)

let rmap () =
  let config =
    {
      Enum.default with
      Enum.explicit = [ [ 0; 1; 2 ] ];
      combo_k = 2;
      combo_budget = 40;
    }
  in
  (Compile.run (Isp.load (preset "AS1239")) config).Compile.artifact

let pp_stats (s : Netsim.stats) =
  let b = Buffer.create 256 in
  Printf.bprintf b "%d %d %d %h %h %d\n" s.Netsim.generated s.Netsim.delivered
    s.Netsim.dropped s.Netsim.mean_delay_s s.Netsim.max_delay_s
    s.Netsim.phase1_packets;
  List.iter
    (fun (r, k) ->
      Printf.bprintf b "%s %d\n" (Format.asprintf "%a" Netsim.pp_drop_reason r) k)
    s.Netsim.drops_by_reason;
  List.iter
    (fun (t, d, x) -> Printf.bprintf b "%h %d %d\n" t d x)
    s.Netsim.timeline;
  Buffer.contents b

(* Packet-level runs: the paper example with a cascade episode, and one
   disc failure on AS1239 with a flow per test case, so several routers
   become initiators. *)
let netsim () =
  let config flows =
    {
      Netsim.igp = Rtr_igp.Igp_config.classic;
      rtr_enabled = true;
      t_fail = 0.5;
      t_end = 3.0;
      flows;
      episodes = [];
    }
  in
  let paper =
    let topo = PE.topology () in
    let g = Rtr_topo.Topology.graph topo in
    let damage =
      Damage.of_failed g ~nodes:[ PE.failed_router ] ~links:(PE.cut_links ())
    in
    let cascade =
      Damage.of_failed g ~nodes:[ PE.failed_router; PE.v 12 ]
        ~links:(PE.cut_links ())
    in
    let flows =
      [
        { Netsim.src = PE.v 7; dst = PE.v 17; rate_pps = 60.0 };
        { Netsim.src = PE.v 3; dst = PE.v 18; rate_pps = 40.0 };
        { Netsim.src = PE.v 15; dst = PE.v 1; rate_pps = 40.0 };
      ]
    in
    Netsim.run topo damage
      { (config flows) with Netsim.episodes = [ (1.2, cascade) ] }
  in
  let isp =
    let topo = Isp.load (preset "AS1239") in
    let table = Rtr_sim.Topo_cache.table (Rtr_sim.Topo_cache.shared topo) in
    let rng = Rtr_util.Rng.make 7 in
    let rec draw () =
      let s = Rtr_sim.Scenario.generate topo table rng () in
      if List.length s.Rtr_sim.Scenario.cases >= 12 then s else draw ()
    in
    let scenario = draw () in
    let flows =
      List.filteri (fun i _ -> i < 12) scenario.Rtr_sim.Scenario.cases
      |> List.map (fun (c : Rtr_sim.Scenario.case) ->
             {
               Netsim.src = c.Rtr_sim.Scenario.initiator;
               dst = c.Rtr_sim.Scenario.dst;
               rate_pps = 20.0;
             })
    in
    Netsim.run topo scenario.Rtr_sim.Scenario.damage
      { (config flows) with Netsim.igp = Rtr_igp.Igp_config.tuned }
  in
  pp_stats paper ^ pp_stats isp

let golden =
  [
    ("table3", "f583b485627085fc", fun () -> table (Experiments.table3 (data ())));
    ("table4", "eed89ee22a0072d6", fun () -> table (Experiments.table4 (data ())));
    ("fig7", "af31459d0845cfe3", fun () -> figure (Experiments.fig7 (data ())));
    ("fig8", "10ad65a2a10872f2", fun () -> figure (Experiments.fig8 (data ())));
    ("fig9", "3de15d4452301a5d", fun () -> figure (Experiments.fig9 (data ())));
    ("fig10", "0c2ad4477306d6c5", fun () -> figure (Experiments.fig10 (data ())));
    ( "fig11",
      "714619ec84e6f267",
      fun () ->
        figure
          (Experiments.fig11 ~areas_per_radius:5 ~radii:[ 50.0; 250.0 ]
             (config ())) );
    ("fig12", "aa8217ce823ac7ec", fun () -> figure (Experiments.fig12 (data ())));
    ("fig13", "12d9343ab9c63a3d", fun () -> figure (Experiments.fig13 (data ())));
    ( "extension_bidir",
      "1adbb38b3aeef132",
      fun () -> table (Experiments.extension_bidir ~cases:40 (config ())) );
    ( "ablation_constraints",
      "5a6b84d3d0b3624a",
      fun () -> table (Experiments.ablation_constraints ~cases:40 (config ()))
    );
    ("congestion_table", "0c282ba6c7460fdb", fun () -> table (congestion ()));
    ("netsim", "7acbff42cfa2fb68", fun () -> digest (netsim ()));
    ("rmap_artifact", "1e83753a44e7e3ea", fun () -> digest (rmap ()));
  ]

let suite =
  List.map
    (fun (name, expected, actual) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string) (name ^ " digest") expected (actual ())))
    golden
