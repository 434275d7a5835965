module Graph = Rtr_graph.Graph
module View = Rtr_graph.View
module Bfs = Rtr_graph.Bfs
module Path = Rtr_graph.Path

let ring n =
  Graph.build ~n ~edges:(List.init n (fun i -> (i, (i + 1) mod n)))

let test_ring_distances () =
  let g = ring 6 in
  let r = Bfs.run (View.full g) ~source:0 in
  Alcotest.(check (list int))
    "distances around the ring"
    [ 0; 1; 2; 3; 2; 1 ]
    (Array.to_list r.Bfs.dist)

let test_unreachable () =
  let g = Graph.build ~n:4 ~edges:[ (0, 1); (2, 3) ] in
  let r = Bfs.run (View.full g) ~source:0 in
  Alcotest.(check bool) "far component" true (r.Bfs.dist.(2) = max_int);
  Alcotest.(check int) "parent unset" (-1) (r.Bfs.parent.(3))

let test_filters () =
  let g = ring 6 in
  (* Cut node 1: the other way around remains. *)
  let r = Bfs.run (View.of_failed g ~nodes:[ 1 ] ~links:[]) ~source:0 in
  Alcotest.(check int) "detour distance" 4 r.Bfs.dist.(2);
  let link01 = Option.get (Graph.find_link g 0 1) in
  let r2 =
    Bfs.run (View.of_failed g ~nodes:[] ~links:[ link01 ]) ~source:0
  in
  Alcotest.(check int) "link cut detour" 5 r2.Bfs.dist.(1)

let test_dead_source () =
  let g = ring 4 in
  let r = Bfs.run (View.of_failed g ~nodes:[ 0 ] ~links:[]) ~source:0 in
  Alcotest.(check bool) "nothing reached" true
    (Array.for_all (fun d -> d = max_int) r.Bfs.dist)

(* Following [parent] from a reached node back to the source (parent
   -1) spells a shortest hop path. *)
let test_path_reconstruction () =
  let g = ring 6 in
  let r = Bfs.run (View.full g) ~source:0 in
  let rec walk acc v = if v = -1 then acc else walk (v :: acc) r.Bfs.parent.(v) in
  let p = Path.of_nodes (walk [] 3) in
  Alcotest.(check int) "shortest hops" 3 (Path.hops p);
  Alcotest.(check int) "starts at source" 0 (Path.source p);
  Alcotest.(check int) "ends at target" 3 (Path.destination p);
  Alcotest.(check bool) "valid" true (Path.is_valid (View.full g) p)

let test_reachable () =
  let g = Graph.build ~n:4 ~edges:[ (0, 1); (2, 3) ] in
  let v = View.full g in
  Alcotest.(check bool) "same component" true (Bfs.reachable v 0 1);
  Alcotest.(check bool) "different" false (Bfs.reachable v 0 3)

let bfs_triangle_inequality =
  QCheck.Test.make ~name:"bfs distances obey the edge triangle inequality"
    ~count:50
    QCheck.(pair (int_range 2 40) (int_range 0 60))
    (fun (n, extra) ->
      let g = Rtr_check.Gen.random_connected_graph ~seed:(n + (extra * 100)) ~n ~extra in
      let r = Bfs.run (View.full g) ~source:0 in
      Graph.fold_links g ~init:true ~f:(fun acc _ u v ->
          acc && abs (r.Bfs.dist.(u) - r.Bfs.dist.(v)) <= 1))

(* Node 5 has two parents at distance 2, nodes 3 and 4.  4 is
   dequeued first (its own parent 1 was discovered before 2), so 5 hangs
   off 4, not off the smaller id 3. *)
let test_parent_is_first_discovered () =
  let g =
    Graph.build ~n:6 ~edges:[ (0, 1); (0, 2); (1, 4); (2, 3); (3, 5); (4, 5) ]
  in
  let r = Bfs.run (View.full g) ~source:0 in
  Alcotest.(check int) "distance to 5" 3 r.Bfs.dist.(5);
  Alcotest.(check int) "parent of 5" 4 r.Bfs.parent.(5)

let suite =
  [
    Alcotest.test_case "ring distances" `Quick test_ring_distances;
    Alcotest.test_case "unreachable" `Quick test_unreachable;
    Alcotest.test_case "filters" `Quick test_filters;
    Alcotest.test_case "dead source" `Quick test_dead_source;
    Alcotest.test_case "path reconstruction" `Quick test_path_reconstruction;
    Alcotest.test_case "reachable" `Quick test_reachable;
    Alcotest.test_case "parent is first discovered" `Quick
      test_parent_is_first_discovered;
    QCheck_alcotest.to_alcotest bfs_triangle_inequality;
  ]
