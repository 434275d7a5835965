module Graph = Rtr_graph.Graph
module View = Rtr_graph.View
module Dijkstra = Rtr_graph.Dijkstra
module Spt = Rtr_graph.Spt
module Path = Rtr_graph.Path
module Bfs = Rtr_graph.Bfs

let weighted_diamond () =
  (* 0 -1- 1 -1- 3 and 0 -5- 2 -1- 3: best 0->3 is via 1. *)
  Graph.build_weighted ~n:4
    ~edges:[ (0, 1, 1, 1); (1, 3, 1, 1); (0, 2, 5, 5); (2, 3, 1, 1) ]

let test_weighted_shortest () =
  let g = weighted_diamond () in
  Alcotest.(check (option int)) "distance" (Some 2)
    (Dijkstra.distance (View.full g) ~src:0 ~dst:3);
  let p = Option.get (Spt.path (Dijkstra.spt (View.full g) ~root:0 ()) 3) in
  Alcotest.(check (list int)) "path" [ 0; 1; 3 ] (Path.nodes p)

let test_asymmetric () =
  let g = Graph.build_weighted ~n:3 ~edges:[ (0, 1, 1, 9); (1, 2, 1, 9) ] in
  Alcotest.(check (option int)) "forward" (Some 2)
    (Dijkstra.distance (View.full g) ~src:0 ~dst:2);
  Alcotest.(check (option int)) "reverse dearer" (Some 18)
    (Dijkstra.distance (View.full g) ~src:2 ~dst:0)

let test_to_root_direction () =
  let g = Graph.build_weighted ~n:3 ~edges:[ (0, 1, 1, 9); (1, 2, 1, 9) ] in
  let t = Dijkstra.spt (View.full g) ~root:2 ~direction:Spt.To_root () in
  (* dist is the cost of travelling TO the root. *)
  Alcotest.(check int) "node 0 to root" 2 (Spt.dist t 0);
  let p = Option.get (Spt.path t 0) in
  Alcotest.(check (list int)) "path oriented to root" [ 0; 1; 2 ] (Path.nodes p)

let test_filters_and_unreachable () =
  let g = weighted_diamond () in
  Alcotest.(check (option int)) "forced detour" (Some 6)
    (Dijkstra.distance
       (View.of_failed g ~nodes:[ 1 ] ~links:[])
       ~src:0 ~dst:3);
  Alcotest.(check (option int)) "cut off" None
    (Dijkstra.distance
       (View.of_failed g ~nodes:[ 1; 2 ] ~links:[])
       ~src:0 ~dst:3)

let test_dead_root () =
  let g = weighted_diamond () in
  let t =
    Dijkstra.spt (View.of_failed g ~nodes:[ 0 ] ~links:[]) ~root:0 ()
  in
  Alcotest.(check bool) "nothing reached" true (not (Spt.reached t 3))

let test_spt_path_and_children () =
  let g = weighted_diamond () in
  let t = Dijkstra.spt (View.full g) ~root:0 () in
  Alcotest.(check int) "root dist" 0 (Spt.dist t 0);
  Alcotest.(check int) "root parent" (-1) (Spt.parent_node t 0);
  let copy = Spt.copy t in
  copy.Spt.dist.(3) <- 99;
  Alcotest.(check int) "copy is deep" 2 (Spt.dist t 3)

let matches_bfs_on_unit_costs =
  QCheck.Test.make ~name:"dijkstra equals bfs on unit costs" ~count:60
    QCheck.(pair (int_range 2 40) (int_range 0 80))
    (fun (n, extra) ->
      let g = Rtr_check.Gen.random_connected_graph ~seed:(n * 131 + extra) ~n ~extra in
      let d = Dijkstra.spt (View.full g) ~root:0 () in
      let b = Bfs.run (View.full g) ~source:0 in
      List.for_all
        (fun v -> Spt.dist d v = b.Bfs.dist.(v))
        (List.init n Fun.id))

let paths_are_valid_and_match_dist =
  QCheck.Test.make ~name:"extracted path cost equals reported distance"
    ~count:40
    QCheck.(int_range 2 30)
    (fun n ->
      let g = Rtr_check.Gen.random_weighted_graph ~seed:n ~n ~extra:n ~max_cost:9 in
      let t = Dijkstra.spt (View.full g) ~root:0 () in
      List.for_all
        (fun v ->
          match Spt.path t v with
          | None -> not (Spt.reached t v)
          | Some p ->
              Path.is_valid (View.full g) p && Path.cost g p = Spt.dist t v)
        (List.init n Fun.id))

let deterministic =
  QCheck.Test.make ~name:"dijkstra is deterministic" ~count:20
    QCheck.(int_range 2 30)
    (fun n ->
      let g = Rtr_check.Gen.random_weighted_graph ~seed:(n * 7) ~n ~extra:n ~max_cost:4 in
      let t1 = Dijkstra.spt (View.full g) ~root:0 ()
      and t2 = Dijkstra.spt (View.full g) ~root:0 () in
      t1.Spt.dist = t2.Spt.dist
      && t1.Spt.parent_node = t2.Spt.parent_node)

let suite =
  [
    Alcotest.test_case "weighted shortest" `Quick test_weighted_shortest;
    Alcotest.test_case "asymmetric" `Quick test_asymmetric;
    Alcotest.test_case "to_root direction" `Quick test_to_root_direction;
    Alcotest.test_case "filters/unreachable" `Quick test_filters_and_unreachable;
    Alcotest.test_case "dead root" `Quick test_dead_root;
    Alcotest.test_case "spt path/children/copy" `Quick test_spt_path_and_children;
    QCheck_alcotest.to_alcotest matches_bfs_on_unit_costs;
    QCheck_alcotest.to_alcotest paths_are_valid_and_match_dist;
    QCheck_alcotest.to_alcotest deterministic;
  ]
