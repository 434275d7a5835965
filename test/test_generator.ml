module Graph = Rtr_graph.Graph
module Generator = Rtr_topo.Generator
module Topology = Rtr_topo.Topology

let test_exact_counts () =
  let rng = Rtr_util.Rng.make 5 in
  let t = Generator.generate rng ~name:"t" ~n:30 ~m:55 () in
  let g = Topology.graph t in
  Alcotest.(check int) "nodes" 30 (Graph.n_nodes g);
  Alcotest.(check int) "links" 55 (Graph.n_links g)

let test_connected () =
  for seed = 1 to 10 do
    let rng = Rtr_util.Rng.make seed in
    let t = Generator.generate rng ~name:"t" ~n:40 ~m:50 () in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d connected" seed)
      true
      (Rtr_graph.Components.is_connected (Topology.graph t))
  done

let test_deterministic () =
  let gen () =
    let rng = Rtr_util.Rng.make 99 in
    Generator.generate rng ~name:"t" ~n:25 ~m:40 ()
  in
  let a = Topology.graph (gen ()) and b = Topology.graph (gen ()) in
  let edges g = Graph.fold_links g ~init:[] ~f:(fun acc _ u v -> (u, v) :: acc) in
  Alcotest.(check (list (pair int int))) "same edges" (edges a) (edges b)

let test_validation () =
  let rng = Rtr_util.Rng.make 1 in
  Alcotest.check_raises "too few links"
    (Invalid_argument "Generator.generate: too few links to connect")
    (fun () -> ignore (Generator.generate rng ~name:"t" ~n:10 ~m:8 ()));
  Alcotest.check_raises "too many links"
    (Invalid_argument "Generator.generate: too many links") (fun () ->
      ignore (Generator.generate rng ~name:"t" ~n:4 ~m:7 ()))

let test_tree_possible () =
  let rng = Rtr_util.Rng.make 3 in
  let t = Generator.generate rng ~name:"tree" ~n:20 ~m:19 () in
  Alcotest.(check bool)
    "spanning tree" true
    (Rtr_graph.Components.is_connected (Topology.graph t))

let test_dense_possible () =
  let rng = Rtr_util.Rng.make 3 in
  let t = Generator.generate rng ~name:"dense" ~n:10 ~m:45 () in
  Alcotest.(check int) "complete graph" 45 (Graph.n_links (Topology.graph t))

let test_locality_shortens_links () =
  let mean_length locality =
    let rng = Rtr_util.Rng.make 77 in
    let t =
      Generator.generate rng ~name:"t" ~n:60 ~m:120
        ~style:{ Generator.locality; pref_attach = 1.0; spanning_pref = 0.0 }
        ()
    in
    let g = Topology.graph t and emb = Topology.embedding t in
    let total =
      Graph.fold_links g ~init:0.0 ~f:(fun acc id _ _ ->
          acc +. Rtr_geom.Segment.length (Rtr_topo.Embedding.segment emb g id))
    in
    total /. float_of_int (Graph.n_links g)
  in
  Alcotest.(check bool)
    "stronger locality gives shorter links" true
    (mean_length 0.03 < mean_length 0.5)

let suite =
  [
    Alcotest.test_case "exact counts" `Quick test_exact_counts;
    Alcotest.test_case "connected" `Quick test_connected;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "tree possible" `Quick test_tree_possible;
    Alcotest.test_case "dense possible" `Quick test_dense_possible;
    Alcotest.test_case "locality shortens links" `Quick test_locality_shortens_links;
  ]
