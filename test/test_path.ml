module Graph = Rtr_graph.Graph
module Path = Rtr_graph.Path

let line () = Graph.build ~n:4 ~edges:[ (0, 1); (1, 2); (2, 3) ]

let test_basics () =
  let p = Path.of_nodes [ 0; 1; 2 ] in
  Alcotest.(check int) "source" 0 (Path.source p);
  Alcotest.(check int) "destination" 2 (Path.destination p);
  Alcotest.(check int) "hops" 2 (Path.hops p);
  Alcotest.(check (list int)) "nodes" [ 0; 1; 2 ] (Path.nodes p)

let test_trivial () =
  let p = Path.of_nodes [ 5 ] in
  Alcotest.(check int) "hops" 0 (Path.hops p);
  Alcotest.(check int) "src=dst" 5 (Path.destination p)

let test_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Path.of_nodes: empty")
    (fun () -> ignore (Path.of_nodes []))

let test_links_and_cost () =
  let g = line () in
  let p = Path.of_nodes [ 0; 1; 2; 3 ] in
  Alcotest.(check int) "three links" 3 (List.length (Path.links g p));
  Alcotest.(check int) "unit cost" 3 (Path.cost g p);
  let q = Path.of_nodes [ 0; 2 ] in
  Alcotest.check_raises "non adjacent"
    (Invalid_argument "Path.links: 0 and 2 not adjacent") (fun () ->
      ignore (Path.links g q))

let test_weighted_cost_direction () =
  let g = Graph.build_weighted ~n:2 ~edges:[ (0, 1, 10, 1) ] in
  Alcotest.(check int) "forward" 10 (Path.cost g (Path.of_nodes [ 0; 1 ]));
  Alcotest.(check int) "reverse" 1 (Path.cost g (Path.of_nodes [ 1; 0 ]))

let test_is_valid () =
  let module View = Rtr_graph.View in
  let g = line () in
  let p = Path.of_nodes [ 0; 1; 2 ] in
  Alcotest.(check bool) "valid" true (Path.is_valid (View.full g) p);
  Alcotest.(check bool)
    "node filter" false
    (Path.is_valid (View.of_failed g ~nodes:[ 1 ] ~links:[]) p);
  let link01 = Option.get (Graph.find_link g 0 1) in
  Alcotest.(check bool)
    "link filter" false
    (Path.is_valid (View.of_failed g ~nodes:[] ~links:[ link01 ]) p);
  Alcotest.(check bool)
    "broken adjacency" false
    (Path.is_valid (View.full g) (Path.of_nodes [ 0; 2 ]))

let test_mem_equal_pp () =
  let p = Path.of_nodes [ 3; 1; 4 ] in
  Alcotest.(check (list int)) "members in order" [ 3; 1; 4 ] (Path.nodes p);
  Alcotest.(check bool) "equal" true (Path.equal p (Path.of_nodes [ 3; 1; 4 ]));
  Alcotest.(check bool) "not equal" false (Path.equal p (Path.of_nodes [ 3; 1 ]));
  Alcotest.(check string) "pp" "v3 -> v1 -> v4" (Path.to_string p)

let suite =
  [
    Alcotest.test_case "basics" `Quick test_basics;
    Alcotest.test_case "trivial" `Quick test_trivial;
    Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
    Alcotest.test_case "links and cost" `Quick test_links_and_cost;
    Alcotest.test_case "weighted direction" `Quick test_weighted_cost_direction;
    Alcotest.test_case "is_valid" `Quick test_is_valid;
    Alcotest.test_case "mem/equal/pp" `Quick test_mem_equal_pp;
  ]
