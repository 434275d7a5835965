(* Failure injection and edge cases cutting across the whole stack:
   polygonal failure areas, weighted/asymmetric costs, border areas,
   degenerate graphs. *)

open Rtr_geom
module Graph = Rtr_graph.Graph
module Damage = Rtr_failure.Damage
module View = Rtr_graph.View
module Rtr = Rtr_core.Rtr
module Path = Rtr_graph.Path
module Route_table = Rtr_routing.Route_table
module Mrc = Rtr_baselines.Mrc
module Scenario = Rtr_sim.Scenario
module Runner = Rtr_sim.Runner

(* RTR's guarantees are shape-independent: rerun the Theorem 2 property
   with polygonal areas. *)
let theorem2_polygon_areas =
  QCheck.Test.make ~name:"Theorem 2 holds for polygonal failure areas"
    ~count:80
    QCheck.(triple (int_range 8 30) (int_range 3 9) (int_range 0 500))
    (fun (n, sides, salt) ->
      let topo = Rtr_check.Gen.random_topology ~seed:(n * 7 + salt) ~n in
      let g = Rtr_topo.Topology.graph topo in
      let rng = Rtr_util.Rng.make (salt + 1) in
      let center =
        Point.make (Rtr_util.Rng.float rng 2000.0) (Rtr_util.Rng.float rng 2000.0)
      in
      let radius = Rtr_util.Rng.float_range rng 100.0 300.0 in
      let area = Rtr_failure.Area.poly (Test_polygon.regular ~center ~radius ~sides) in
      let damage = Damage.apply topo area in
      let truth = Damage.view damage in
      List.for_all
        (fun (initiator, trigger) ->
          let session = Rtr.start topo damage ~initiator ~trigger () in
          List.for_all
            (fun dst ->
              if dst = initiator then true
              else
                match Rtr.recover session ~dst with
                | Rtr.Recovered path -> (
                    match
                      Rtr_graph.Dijkstra.distance truth ~src:initiator ~dst
                    with
                    | Some best -> Path.cost g path = best
                    | None -> false)
                | Rtr.Unreachable_in_view ->
                    not
                      (Rtr_graph.Bfs.reachable truth initiator dst)
                | Rtr.False_path _ -> true)
            (List.init (Graph.n_nodes g) Fun.id))
        (match Rtr_check.Gen.detectors topo damage with [] -> [] | x :: _ -> [ x ]))

(* Area centred outside the plane's corner: only clips the border. *)
let border_area_harmless_when_missing =
  QCheck.Test.make ~name:"area clipping nothing leaves routing intact"
    ~count:50
    QCheck.(int_range 5 25)
    (fun n ->
      let topo = Rtr_check.Gen.random_topology ~seed:(n * 13) ~n in
      (* Far outside the 2000x2000 plane. *)
      let area =
        Rtr_failure.Area.disc ~center:(Point.make 10_000.0 10_000.0)
          ~radius:100.0
      in
      let damage = Damage.apply topo area in
      Damage.failed_nodes damage = [] && Damage.n_failed_links damage = 0)

(* Weighted, asymmetric link costs through the full recovery stack:
   the recovery path must be optimal with respect to the cost metric,
   not hop count. *)
let theorem2_weighted_costs =
  QCheck.Test.make ~name:"Theorem 2 with asymmetric weighted costs" ~count:60
    QCheck.(pair (int_range 6 20) (int_range 0 300))
    (fun (n, salt) ->
      let g =
        Rtr_check.Gen.random_weighted_graph ~seed:(n + salt) ~n ~extra:n ~max_cost:9
      in
      let rng = Rtr_util.Rng.make (salt + 2) in
      let emb = Rtr_topo.Embedding.random rng ~n () in
      let topo = Rtr_topo.Topology.create ~name:"weighted" g emb in
      let damage = Rtr_check.Gen.random_damage ~seed:(salt * 11) topo in
      let truth = Damage.view damage in
      List.for_all
        (fun (initiator, trigger) ->
          let session = Rtr.start topo damage ~initiator ~trigger () in
          List.for_all
            (fun dst ->
              if dst = initiator then true
              else
                match Rtr.recover session ~dst with
                | Rtr.Recovered path -> (
                    match
                      Rtr_graph.Dijkstra.distance truth ~src:initiator ~dst
                    with
                    | Some best -> Path.cost g path = best
                    | None -> false)
                | Rtr.Unreachable_in_view | Rtr.False_path _ -> true)
            (List.init (Graph.n_nodes g) Fun.id))
        (match Rtr_check.Gen.detectors topo damage with [] -> [] | x :: _ -> [ x ]))

(* Every Table II AS has unit costs.  This ~100-node topology keeps a
   generated embedding but gives each link direction its own cost up to
   1,000, so the SPT queue's cost bound (max cost x (n - 1)) is past the
   Dial cap and every Dijkstra runs in heap mode.  On a few discs, FCP
   routes from one shared session equal fresh runs and the
   from-scratch reference, and RTR recovers every recoverable case it
   delivers with stretch exactly 1. *)
let test_weighted_heap_mode () =
  let base =
    Rtr_topo.Generator.generate (Rtr_util.Rng.make 61) ~name:"weighted"
      ~n:100 ~m:190 ()
  in
  let g0 = Rtr_topo.Topology.graph base in
  let rng = Rtr_util.Rng.make 62 in
  let edges =
    List.init (Graph.n_links g0) (fun id ->
        let u, v = Graph.endpoints g0 id in
        (u, v, 1 + Rtr_util.Rng.int rng 1000, 1 + Rtr_util.Rng.int rng 1000))
  in
  let g = Graph.build_weighted ~n:100 ~edges in
  let topo =
    Rtr_topo.Topology.create ~name:"weighted-heap" g
      (Rtr_topo.Topology.embedding base)
  in
  Alcotest.(check int) "heap mode" (-1)
    (Rtr_graph.Pqueue.dial_bound_for ~max_cost:(Graph.max_cost g) ~n_nodes:100);
  let table = Rtr_routing.Route_table.compute (View.full g) in
  let mrc = Rtr_baselines.Mrc.build_auto g in
  let module Fcp = Rtr_baselines.Fcp in
  let module Scenario = Rtr_sim.Scenario in
  let cases = ref 0 and recovered = ref 0 in
  for _ = 1 to 4 do
    let sc = Scenario.generate topo table rng () in
    let damage = sc.Scenario.damage in
    let order = Array.of_list (sc.Scenario.cases @ sc.Scenario.cases) in
    Rtr_util.Rng.shuffle rng order;
    let session = Fcp.start topo damage in
    Array.iter
      (fun (c : Scenario.case) ->
        let initiator = c.Scenario.initiator and dst = c.Scenario.dst in
        let shared = Fcp.route session ~initiator ~dst in
        incr cases;
        if shared <> Fcp.run topo damage ~initiator ~dst then
          Alcotest.failf "v%d -> v%d: session differs from a fresh run"
            initiator dst;
        if shared <> Rtr_check.Reference.fcp topo damage ~initiator ~dst then
          Alcotest.failf "v%d -> v%d: session differs from the reference"
            initiator dst)
      order;
    List.iter
      (fun (r : Rtr_sim.Runner.result) ->
        if r.Rtr_sim.Runner.case.Scenario.kind = Scenario.Recoverable
           && r.Rtr_sim.Runner.rtr_recovered
        then begin
          incr recovered;
          Alcotest.(check (option (float 0.0)))
            "RTR stretch" (Some 1.0) r.Rtr_sim.Runner.rtr_stretch
        end)
      (Rtr_sim.Runner.run_scenario ~mrc sc)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d FCP routes, %d RTR recoveries" !cases !recovered)
    true
    (!cases > 50 && !recovered > 10)

(* The whole network inside the area: every detector sees only dead
   neighbours or is dead itself. *)
let test_total_destruction () =
  let topo = Rtr_check.Gen.random_topology ~seed:5 ~n:12 in
  let area =
    Rtr_failure.Area.disc ~center:(Point.make 1000.0 1000.0) ~radius:5000.0
  in
  let damage = Damage.apply topo area in
  Alcotest.(check int) "everyone dead" 12
    (List.length (Damage.failed_nodes damage));
  Alcotest.(check (list (pair int int))) "no detectors" []
    (Rtr_check.Gen.detectors topo damage)

(* Two-node graph: the smallest possible recovery problem. *)
let test_two_node_graph () =
  let g = Graph.build ~n:2 ~edges:[ (0, 1) ] in
  let emb =
    Rtr_topo.Embedding.of_points [| Point.make 0.0 0.0; Point.make 10.0 0.0 |]
  in
  let topo = Rtr_topo.Topology.create ~name:"pair" g emb in
  let damage = Damage.of_failed g ~nodes:[] ~links:[ 0 ] in
  let session = Rtr.start topo damage ~initiator:0 ~trigger:1 () in
  (match Rtr.recover session ~dst:1 with
  | Rtr.Unreachable_in_view -> ()
  | _ -> Alcotest.fail "no alternative path exists");
  let p1 = Rtr.phase1 session in
  Alcotest.(check bool) "degenerate walk" true
    (p1.Rtr_core.Phase1.status = Rtr_core.Phase1.No_live_neighbor)

(* A clique: maximal redundancy; any single node failure must be fully
   recoverable from every initiator. *)
let test_clique_single_node_failure () =
  let n = 8 in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  let g = Graph.build ~n ~edges:!edges in
  let rng = Rtr_util.Rng.make 77 in
  let emb = Rtr_topo.Embedding.random rng ~n () in
  let topo = Rtr_topo.Topology.create ~name:"clique" g emb in
  let damage = Damage.of_failed g ~nodes:[ 3 ] ~links:[] in
  for initiator = 0 to n - 1 do
    if initiator <> 3 then begin
      let session = Rtr.start topo damage ~initiator ~trigger:3 () in
      for dst = 0 to n - 1 do
        if dst <> initiator && dst <> 3 then
          match Rtr.recover session ~dst with
          | Rtr.Recovered path ->
              Alcotest.(check int)
                (Printf.sprintf "direct hop %d->%d" initiator dst)
                1 (Path.hops path)
          | _ -> Alcotest.fail "clique recovery failed"
      done
    end
  done

(* Degenerate topologies through the whole stack.  One router: the
   route table, MRC and the runner answer, and no damage yields a test
   case (RTR and FCP need a neighbour and a destination other than the
   initiator, and there is none). *)
let test_single_node_graph () =
  let g = Graph.build ~n:1 ~edges:[] in
  let topo =
    Rtr_topo.Topology.create ~name:"single" g
      (Rtr_topo.Embedding.of_points [| Point.make 500.0 500.0 |])
  in
  let table = Route_table.compute (View.full g) in
  Alcotest.(check (option int)) "no next hop to itself" None
    (Route_table.next_hop table ~src:0 ~dst:0);
  let mrc = Mrc.build_auto g in
  Alcotest.(check bool) "MRC built" true (Mrc.n_configs mrc >= 2);
  List.iter
    (fun (what, x) ->
      let sc =
        Scenario.of_area topo table
          (Rtr_failure.Area.disc ~center:(Point.make x 500.0) ~radius:10.0)
      in
      Alcotest.(check int) (what ^ ": no test case") 0
        (List.length sc.Scenario.cases);
      Alcotest.(check int) (what ^ ": no result") 0
        (List.length (Runner.run_scenario ~mrc sc)))
    [ ("router inside the disc", 500.0); ("disc beside the router", 700.0) ]

(* Two components, a triangle and a pair, with a disc cutting one
   triangle link: both cut directions recover through the third
   router, and every scheme answers a destination in the other
   component with its "unreachable" result. *)
let test_two_component_graph () =
  let g = Graph.build ~n:5 ~edges:[ (0, 1); (1, 2); (0, 2); (3, 4) ] in
  let topo =
    Rtr_topo.Topology.create ~name:"split" g
      (Rtr_topo.Embedding.of_points
         (Array.map
            (fun (x, y) -> Point.make x y)
            [| (100., 100.); (200., 100.); (150., 200.); (1000., 1000.);
               (1100., 1000.) |]))
  in
  let table = Route_table.compute (View.full g) in
  Alcotest.(check bool) "no route across components" true
    (Route_table.next_hop table ~src:0 ~dst:3 = None
    && Route_table.default_path table ~src:0 ~dst:3 = None);
  let sc =
    Scenario.of_area topo table
      (Rtr_failure.Area.disc ~center:(Point.make 150.0 100.0) ~radius:10.0)
  in
  let damage = sc.Scenario.damage in
  Alcotest.(check (list int)) "one link cut" [ 0 ] (Damage.failed_links damage);
  let mrc = Mrc.build_auto g in
  Alcotest.(check (list (triple int int (option (float 0.0)))))
    "both cut directions are cases, recovered with stretch 1"
    [ (0, 1, Some 1.0); (1, 0, Some 1.0) ]
    (List.map
       (fun (r : Runner.result) ->
         (r.Runner.case.Scenario.initiator, r.Runner.case.Scenario.dst,
          r.Runner.rtr_stretch))
       (Runner.run_scenario ~mrc sc));
  let session = Rtr.start topo damage ~initiator:0 ~trigger:1 () in
  Alcotest.(check bool) "RTR: other component unreachable" true
    (Rtr.recover session ~dst:3 = Rtr.Unreachable_in_view);
  let fcp = Rtr_baselines.Fcp.run topo damage ~initiator:0 ~dst:3 in
  Alcotest.(check bool) "FCP does not deliver" false
    fcp.Rtr_baselines.Fcp.delivered;
  match Mrc.recover mrc damage ~initiator:0 ~trigger:1 ~dst:3 with
  | Mrc.Dropped _ -> ()
  | Mrc.Delivered _ -> Alcotest.fail "MRC delivered across components"

let suite =
  [
    QCheck_alcotest.to_alcotest theorem2_polygon_areas;
    QCheck_alcotest.to_alcotest border_area_harmless_when_missing;
    QCheck_alcotest.to_alcotest theorem2_weighted_costs;
    Alcotest.test_case "total destruction" `Quick test_total_destruction;
    Alcotest.test_case "two-node graph" `Quick test_two_node_graph;
    Alcotest.test_case "single-node graph" `Quick test_single_node_graph;
    Alcotest.test_case "two-component graph" `Quick test_two_component_graph;
    Alcotest.test_case "clique single failure" `Quick test_clique_single_node_failure;
  ]

let heap_costs_suite =
  [
    Alcotest.test_case "weighted asymmetric heap-mode recovery" `Quick
      test_weighted_heap_mode;
  ]
