open Rtr_geom
module Graph = Rtr_graph.Graph
module Damage = Rtr_failure.Damage
module Area = Rtr_failure.Area
module Embedding = Rtr_topo.Embedding

(* A 3-node line embedded left to right; the disc sits on the middle
   node. *)
let line_topology () =
  let pts =
    [| Point.make 0.0 0.0; Point.make 100.0 0.0; Point.make 200.0 0.0 |]
  in
  let g = Graph.build ~n:3 ~edges:[ (0, 1); (1, 2) ] in
  Rtr_topo.Topology.create ~name:"line" g (Embedding.of_points pts)

let test_apply_node_failure () =
  let topo = line_topology () in
  let area = Area.disc ~center:(Point.make 100.0 0.0) ~radius:10.0 in
  let d = Damage.apply topo area in
  Alcotest.(check bool) "middle failed" true (Damage.node_failed d 1);
  Alcotest.(check bool) "ends live" true
    (Damage.node_ok d 0 && Damage.node_ok d 2);
  (* Both links touch the failed node and the disc. *)
  Alcotest.(check int) "both links failed" 2 (Damage.n_failed_links d);
  Alcotest.(check (list int)) "failed node list" [ 1 ] (Damage.failed_nodes d)

let test_apply_link_only_failure () =
  let topo = line_topology () in
  (* Disc between nodes 0 and 1, touching neither. *)
  let area = Area.disc ~center:(Point.make 50.0 0.0) ~radius:10.0 in
  let d = Damage.apply topo area in
  Alcotest.(check (list int)) "no node failed" [] (Damage.failed_nodes d);
  Alcotest.(check int) "one link cut" 1 (Damage.n_failed_links d)

let test_of_failed_seals_incident_links () =
  let g = Graph.build ~n:3 ~edges:[ (0, 1); (1, 2); (0, 2) ] in
  let d = Damage.of_failed g ~nodes:[ 1 ] ~links:[] in
  Alcotest.(check int) "links of dead node fail" 2 (Damage.n_failed_links d);
  let l02 = Option.get (Graph.find_link g 0 2) in
  Alcotest.(check bool) "bystander link survives" true (Damage.link_ok d l02)

let test_neighbor_unreachable_cases () =
  let g = Graph.build ~n:3 ~edges:[ (0, 1); (1, 2) ] in
  let l01 = Option.get (Graph.find_link g 0 1) in
  (* Case 1: the node failed. *)
  let d1 = Damage.of_failed g ~nodes:[ 1 ] ~links:[] in
  Alcotest.(check bool) "node death observed" true
    (Damage.neighbor_unreachable d1 1 l01);
  (* Case 2: only the link failed — indistinguishable locally. *)
  let d2 = Damage.of_failed g ~nodes:[] ~links:[ l01 ] in
  Alcotest.(check bool) "link death observed" true
    (Damage.neighbor_unreachable d2 1 l01);
  Alcotest.(check bool) "the node itself is fine" true (Damage.node_ok d2 1)

let test_unreachable_neighbors_listing () =
  let g = Graph.build ~n:4 ~edges:[ (0, 1); (0, 2); (0, 3) ] in
  let d = Damage.of_failed g ~nodes:[ 2 ] ~links:[] in
  let unreachable = Damage.unreachable_neighbors d g 0 in
  Alcotest.(check (list int)) "only node 2" [ 2 ] (List.map fst unreachable)

let test_merge () =
  let g = Graph.build ~n:4 ~edges:[ (0, 1); (1, 2); (2, 3) ] in
  let d1 = Damage.of_failed g ~nodes:[ 0 ] ~links:[] in
  let d2 = Damage.of_failed g ~nodes:[ 3 ] ~links:[] in
  let m = Damage.merge d1 d2 in
  Alcotest.(check (list int)) "union of nodes" [ 0; 3 ] (Damage.failed_nodes m);
  Alcotest.(check int) "union of links" 2 (Damage.n_failed_links m)

let test_none () =
  let g = Graph.build ~n:2 ~edges:[ (0, 1) ] in
  let d = Damage.none g in
  Alcotest.(check (list int)) "no nodes" [] (Damage.failed_nodes d);
  Alcotest.(check int) "no links" 0 (Damage.n_failed_links d)

let area_failure_consistent =
  QCheck.Test.make
    ~name:"every link across the disc or touching a dead router fails"
    ~count:40
    QCheck.(int_range 5 30)
    (fun n ->
      let topo = Rtr_check.Gen.random_topology ~seed:(n * 17) ~n in
      let d = Rtr_check.Gen.random_damage ~seed:n topo in
      let g = Rtr_topo.Topology.graph topo in
      Graph.fold_links g ~init:true ~f:(fun acc id u v ->
          acc
          &&
          if Damage.node_failed d u || Damage.node_failed d v then
            Damage.link_failed d id
          else true))

let suite =
  [
    Alcotest.test_case "apply node failure" `Quick test_apply_node_failure;
    Alcotest.test_case "apply link-only failure" `Quick test_apply_link_only_failure;
    Alcotest.test_case "of_failed seals" `Quick test_of_failed_seals_incident_links;
    Alcotest.test_case "neighbor unreachable" `Quick test_neighbor_unreachable_cases;
    Alcotest.test_case "unreachable listing" `Quick test_unreachable_neighbors_listing;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "none" `Quick test_none;
    QCheck_alcotest.to_alcotest area_failure_consistent;
  ]
