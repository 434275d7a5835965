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
module Flowsim = Rtr_des.Flowsim
module Topo_cache = Rtr_routing.Topo_cache
module Campaign = Rtr_check.Campaign

let digest = Compile.fnv64_hex
let table t = digest (Report.table_to_csv t)
let figure f = digest (Report.figure_to_csv f)

(* The small collection of [Test_experiments]: AS1239 + AS4323, 120 +
   120 cases, seed 3.  Shared, so the suite collects it once. *)
let data () = snd (Lazy.force Test_experiments.data)
let config () = fst (Lazy.force Test_experiments.data)

let preset name = Option.get (Isp.find name)

(* The five schemes on AS1239 and AS3549, 3,000 flows each: the
   congestion table digests the AS1239 rows, the full-stats digests
   below both topologies. *)
let congestion_data =
  lazy
    (Experiments.congestion_data ~flows_per_topo:3000
       {
         (config ()) with
         Experiments.presets = [ preset "AS1239"; preset "AS3549" ];
       })

let congestion () =
  Experiments.congestion_table
    (List.filter
       (fun ((p : Isp.preset), _) -> p.Isp.as_name = "AS1239")
       (Lazy.force congestion_data))

(* Every field of a [Flowsim.stats]: the table above only sees rounded
   cells, so a one-pps shift on one link would slip past it. *)
let pp_flowsim b (s : Flowsim.stats) =
  Printf.bprintf b "%d %d %d %d %d %d %h %d %d %h %h %d %d %d %d\n"
    s.Flowsim.flows s.Flowsim.offered_ratems s.Flowsim.delivered_ratems
    s.Flowsim.blackholed_ratems s.Flowsim.dropped_recovery_ratems
    s.Flowsim.dropped_no_route_ratems s.Flowsim.delivered_frac
    s.Flowsim.broken s.Flowsim.recovered s.Flowsim.stretch_agg
    s.Flowsim.stretch_max s.Flowsim.base_max_load s.Flowsim.rec_max_load
    s.Flowsim.post_max_load s.Flowsim.overloaded_links;
  Array.iter (fun v -> Printf.bprintf b "%d " v) s.Flowsim.rec_link_loads;
  Buffer.add_char b '\n'

let flowsim_stats as_name scheme =
  let _, per_scheme =
    List.find
      (fun ((p : Isp.preset), _) -> p.Isp.as_name = as_name)
      (Lazy.force congestion_data)
  in
  let b = Buffer.create 4096 in
  pp_flowsim b (List.assoc scheme per_scheme);
  digest (Buffer.contents b)

(* Two ground-truth eras: an AS1239 disc at t_fail, then at t = 4 s a
   restore episode repairs one failed router and every other failed
   link, so both eras open a recovery window (classic IGP: detection
   1 s, convergence several seconds) against different damage. *)
let flowsim_two_era () =
  let topo = Isp.load (preset "AS1239") in
  let table = Topo_cache.table (Topo_cache.shared topo) in
  let rng = Rtr_util.Rng.make 11 in
  let rec draw () =
    let d = (Rtr_sim.Scenario.generate topo table rng ()).Rtr_sim.Scenario.damage in
    if Damage.failed_nodes d <> [] && Damage.n_failed_links d >= 6 then d
    else draw ()
  in
  let damage = draw () in
  let restored =
    Damage.restore damage
      ~nodes:[ List.hd (Damage.failed_nodes damage) ]
      ~links:(List.filteri (fun i _ -> i mod 2 = 0) (Damage.failed_links damage))
      ()
  in
  let flows = Flowsim.demand topo ~n:3000 ~seed:5 in
  let b = Buffer.create 4096 in
  List.iter
    (fun scheme ->
      pp_flowsim b
        (Flowsim.run topo damage
           {
             Flowsim.default_config with
             Flowsim.scheme;
             seed = 5;
             episodes = [ (4.0, restored) ];
           }
           flows))
    Experiments.congestion_schemes;
  digest (Buffer.contents b)

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

(* The theorem-survival matrix: five timeline specs per kind, seed 7,
   no artifacts, so the JSON holds only the measured rows. *)
let survival () =
  let config = { Campaign.default with Campaign.cases = 5; seed = 7 } in
  let _, rows =
    Campaign.run_episodes config
      ~kinds:Rtr_check.Oracle.Episode.[ Static; Cascading; Transient; Moving ]
  in
  Rtr_obs.Json.to_string (Campaign.survival_json ~seed:7 ~cases:5 rows)

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
    let table = Topo_cache.table (Topo_cache.shared topo) in
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
    ( "ablation_mrc_k",
      "cdfd8c73cbb669b3",
      fun () ->
        table (Experiments.ablation_mrc_k ~cases:40 ~ks:[ 4; 8 ] (config ()))
    );
    ( "instance_variance",
      "a4e290b263852679",
      fun () ->
        table
          (Experiments.instance_variance ~cases:30 ~instances:2 (config ())) );
    ("congestion_table", "0c282ba6c7460fdb", fun () -> table (congestion ()));
    ("netsim", "7acbff42cfa2fb68", fun () -> digest (netsim ()));
    ("rmap_artifact", "1e83753a44e7e3ea", fun () -> digest (rmap ()));
    ("survival_matrix", "286700d2900861cb", fun () -> digest (survival ()));
  ]
  @ List.concat_map
      (fun (as_name, digests) ->
        List.map2
          (fun scheme expected ->
            ( Printf.sprintf "flowsim_%s_%s" as_name (Flowsim.scheme_name scheme),
              expected,
              fun () -> flowsim_stats as_name scheme ))
          Experiments.congestion_schemes digests)
      [
        ( "AS1239",
          [
            "e450991edab48ad9";
            "101a341e4b4c0962";
            "101a341e4b4c0962";
            "afb81788cc9fecac";
            "5f55bb16601f0053";
          ] );
        ( "AS3549",
          [
            "c2e76ebb0cb6ac32";
            "7a70f9a4ba9c8adf";
            "721392300ec90d9d";
            "77d36060d10e68ea";
            "56c4ae9fb6990278";
          ] );
      ]
  @ [ ("flowsim_two_era", "a690eb667743b922", flowsim_two_era) ]

let suite =
  List.map
    (fun (name, expected, actual) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string) (name ^ " digest") expected (actual ())))
    golden
