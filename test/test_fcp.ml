module Graph = Rtr_graph.Graph
module Damage = Rtr_failure.Damage
module Fcp = Rtr_baselines.Fcp
module View = Rtr_graph.View
module Topo_cache = Rtr_routing.Topo_cache
module Path = Rtr_graph.Path
module PE = Rtr_topo.Paper_example

let paper_damage () =
  let g = Rtr_topo.Topology.graph (PE.topology ()) in
  Damage.of_failed g ~nodes:[ PE.failed_router ] ~links:(PE.cut_links ())

let test_delivers_on_paper_example () =
  let topo = PE.topology () in
  let damage = paper_damage () in
  let r = Fcp.run topo damage ~initiator:PE.initiator ~dst:PE.destination in
  Alcotest.(check bool) "delivered" true r.Fcp.delivered;
  Alcotest.(check int) "journey ends at destination" PE.destination
    (Path.destination r.Fcp.journey);
  Alcotest.(check bool) "at least one recomputation" true
    (r.Fcp.sp_calculations >= 1);
  Alcotest.(check (option int)) "no discard" None r.Fcp.discarded_at

let test_no_failure_single_computation () =
  let topo = PE.topology () in
  let g = Rtr_topo.Topology.graph topo in
  let r = Fcp.run topo (Damage.none g) ~initiator:PE.source ~dst:PE.destination in
  Alcotest.(check bool) "delivered" true r.Fcp.delivered;
  Alcotest.(check int) "exactly one computation" 1 r.Fcp.sp_calculations;
  Alcotest.(check int) "journey is the shortest path"
    (Option.get (Rtr_graph.Dijkstra.distance (View.full g) ~src:PE.source
       ~dst:PE.destination))
    (Path.cost g r.Fcp.journey)

let test_unreachable_discards () =
  let topo = PE.topology () in
  let g = Rtr_topo.Topology.graph topo in
  (* Isolate v18. *)
  let damage = Damage.of_failed g ~nodes:[ PE.v 12; PE.v 16; PE.v 17 ] ~links:[] in
  let r = Fcp.run topo damage ~initiator:(PE.v 11) ~dst:(PE.v 18) in
  Alcotest.(check bool) "not delivered" false r.Fcp.delivered;
  Alcotest.(check bool) "discarded somewhere" true
    (Option.is_some r.Fcp.discarded_at)

let test_validation () =
  let topo = PE.topology () in
  let g = Rtr_topo.Topology.graph topo in
  Alcotest.check_raises "same node"
    (Invalid_argument "Fcp.route: initiator equals destination") (fun () ->
      ignore (Fcp.run topo (Damage.none g) ~initiator:3 ~dst:3))

let test_wasted_transmission_accounting () =
  let topo = PE.topology () in
  let damage = paper_damage () in
  let r = Fcp.run topo damage ~initiator:PE.initiator ~dst:PE.destination in
  let expected =
    List.fold_left
      (fun acc (h : Fcp.hop_record) -> acc + 1000 + h.Fcp.header_bytes)
      0 r.Fcp.hops
  in
  Alcotest.(check int) "byte-hop pricing" expected (Fcp.wasted_transmission r);
  Alcotest.(check int) "one record per journey hop"
    (Path.hops r.Fcp.journey)
    (List.length r.Fcp.hops)

(* A reused session shares trees across routes; every result must still
   equal a fresh [run] field for field — journey, [sp_calculations],
   [carried_links] in insertion order, per-hop [header_bytes].  Cases
   come from random discs on three Table II ASes, run in shuffled order
   (each twice) so trees computed for one case serve later ones with
   different initiators and destinations. *)
let test_session_equals_fresh_runs () =
  let scenarios = ref 0 and cases = ref 0 and calcs = ref 0 and trees = ref 0 in
  let ws_runs () =
    Rtr_obs.Metrics.(
      Counter.value (counter "spt.ws_reuse")
      + Counter.value (counter "spt.ws_alloc"))
  in
  List.iter
    (fun as_name ->
      let topo = Rtr_topo.Isp.load_by_name as_name in
      let table = Topo_cache.table (Topo_cache.shared topo) in
      let rng = Rtr_util.Rng.make 29 in
      for _ = 1 to 7 do
        let sc = Rtr_sim.Scenario.generate topo table rng () in
        let damage = sc.Rtr_sim.Scenario.damage in
        let order =
          Array.of_list (sc.Rtr_sim.Scenario.cases @ sc.Rtr_sim.Scenario.cases)
        in
        Rtr_util.Rng.shuffle rng order;
        let session = Fcp.start topo damage in
        incr scenarios;
        Array.iter
          (fun (c : Rtr_sim.Scenario.case) ->
            let initiator = c.Rtr_sim.Scenario.initiator
            and dst = c.Rtr_sim.Scenario.dst in
            let fresh = Fcp.run topo damage ~initiator ~dst in
            let before = ws_runs () in
            let shared = Fcp.route session ~initiator ~dst in
            trees := !trees + (ws_runs () - before);
            calcs := !calcs + shared.Fcp.sp_calculations;
            incr cases;
            if shared <> fresh then
              Alcotest.failf "%s: initiator %d dst %d: session route differs"
                as_name initiator dst)
          order
      done)
    [ "AS1239"; "AS3549"; "AS4323" ];
  Alcotest.(check bool)
    (Printf.sprintf "%d scenarios, %d cases" !scenarios !cases)
    true (!cases > 100);
  Alcotest.(check bool)
    (Printf.sprintf "trees shared (%d computed for %d recomputations)" !trees
       !calcs)
    true (!trees < !calcs)

let delivers_iff_reachable =
  QCheck.Test.make ~name:"FCP delivers exactly the reachable destinations"
    ~count:100
    QCheck.(pair (int_range 6 35) (int_range 0 800))
    (fun (n, salt) ->
      let topo = Rtr_check.Gen.random_topology ~seed:(salt + (n * 41)) ~n in
      let g = Rtr_topo.Topology.graph topo in
      let damage = Rtr_check.Gen.random_damage ~seed:(salt * 3) topo in
      let view = Damage.view damage in
      List.for_all
        (fun (initiator, _) ->
          List.for_all
            (fun dst ->
              if dst = initiator then true
              else
                let r = Fcp.run topo damage ~initiator ~dst in
                r.Fcp.delivered = Rtr_graph.Bfs.reachable view initiator dst)
            (List.init (Graph.n_nodes g) Fun.id))
        (match Rtr_check.Gen.detectors topo damage with [] -> [] | x :: _ -> [ x ]))

let carried_links_truly_failed =
  QCheck.Test.make ~name:"FCP only carries truly failed links" ~count:100
    QCheck.(pair (int_range 6 30) (int_range 0 800))
    (fun (n, salt) ->
      let topo = Rtr_check.Gen.random_topology ~seed:(salt * 2 + n) ~n in
      let g = Rtr_topo.Topology.graph topo in
      let damage = Rtr_check.Gen.random_damage ~seed:salt topo in
      List.for_all
        (fun (initiator, _) ->
          let r = Fcp.run topo damage ~initiator ~dst:((initiator + 1) mod Graph.n_nodes g) in
          List.for_all (Damage.link_failed damage) r.Fcp.carried_links)
        (match Rtr_check.Gen.detectors topo damage with [] -> [] | x :: _ -> [ x ]))

let journey_walks_live_ground =
  QCheck.Test.make ~name:"FCP journeys only cross live links" ~count:80
    QCheck.(pair (int_range 6 30) (int_range 0 500))
    (fun (n, salt) ->
      let topo = Rtr_check.Gen.random_topology ~seed:(salt * 5 + n) ~n in
      let g = Rtr_topo.Topology.graph topo in
      let damage = Rtr_check.Gen.random_damage ~seed:(salt + 17) topo in
      List.for_all
        (fun (initiator, _) ->
          List.for_all
            (fun dst ->
              if dst = initiator then true
              else
                let r = Fcp.run topo damage ~initiator ~dst in
                Path.is_valid (Damage.view damage) r.Fcp.journey)
            (List.init (Graph.n_nodes g) Fun.id))
        (match Rtr_check.Gen.detectors topo damage with [] -> [] | x :: _ -> [ x ]))

let suite =
  [
    Alcotest.test_case "delivers on paper example" `Quick test_delivers_on_paper_example;
    Alcotest.test_case "no failure, one computation" `Quick
      test_no_failure_single_computation;
    Alcotest.test_case "unreachable discards" `Quick test_unreachable_discards;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "wasted transmission" `Quick test_wasted_transmission_accounting;
    Alcotest.test_case "session equals fresh runs" `Quick
      test_session_equals_fresh_runs;
    QCheck_alcotest.to_alcotest delivers_iff_reachable;
    QCheck_alcotest.to_alcotest carried_links_truly_failed;
    QCheck_alcotest.to_alcotest journey_walks_live_ground;
  ]
