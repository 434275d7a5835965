module Graph = Rtr_graph.Graph
module View = Rtr_graph.View
module Components = Rtr_graph.Components

let test_connected () =
  let g = Graph.build ~n:3 ~edges:[ (0, 1); (1, 2) ] in
  let c = Components.compute (View.full g) in
  Alcotest.(check int) "one component" 1 (Components.count c);
  Alcotest.(check bool) "same" true (Components.same c 0 2);
  Alcotest.(check bool) "is_connected" true (Components.is_connected g)

let test_two_components () =
  let g = Graph.build ~n:5 ~edges:[ (0, 1); (2, 3); (3, 4) ] in
  let c = Components.compute (View.full g) in
  Alcotest.(check int) "two" 2 (Components.count c);
  Alcotest.(check bool) "separate" false (Components.same c 1 2);
  Alcotest.(check (list int))
    "sizes" [ 2; 3 ]
    (List.sort compare (Array.to_list (Components.sizes c)))

let test_failed_nodes_excluded () =
  let g = Graph.build ~n:3 ~edges:[ (0, 1); (1, 2) ] in
  let c = Components.compute (View.of_failed g ~nodes:[ 1 ] ~links:[]) in
  Alcotest.(check int) "cut vertex splits" 2 (Components.count c);
  Alcotest.(check int) "dead node id" (-1) (Components.id_of c 1);
  Alcotest.(check bool) "dead never same" false (Components.same c 1 1)

let test_link_filter () =
  let g = Graph.build ~n:2 ~edges:[ (0, 1) ] in
  let c = Components.compute (View.of_failed g ~nodes:[] ~links:[ 0 ]) in
  Alcotest.(check int) "all isolated" 2 (Components.count c)

let components_partition =
  QCheck.Test.make ~name:"components partition the live nodes" ~count:50
    QCheck.(int_range 2 40)
    (fun n ->
      let g = Rtr_check.Gen.random_connected_graph ~seed:n ~n ~extra:n in
      let node_ok v = v mod 3 <> 0 in
      let dead = List.filter (fun v -> not (node_ok v)) (List.init n Fun.id) in
      let c = Components.compute (View.of_failed g ~nodes:dead ~links:[]) in
      let sizes = Components.sizes c in
      let live = ref 0 in
      for v = 0 to n - 1 do
        if node_ok v then incr live
      done;
      Array.fold_left ( + ) 0 sizes = !live
      && Array.for_all (fun s -> s > 0) sizes)

let suite =
  [
    Alcotest.test_case "connected" `Quick test_connected;
    Alcotest.test_case "two components" `Quick test_two_components;
    Alcotest.test_case "failed nodes excluded" `Quick test_failed_nodes_excluded;
    Alcotest.test_case "link filter" `Quick test_link_filter;
    QCheck_alcotest.to_alcotest components_partition;
  ]
