module Isp = Rtr_topo.Isp
module Graph = Rtr_graph.Graph

let test_table2_matches_paper () =
  let expected =
    [
      ("AS209", 58, 108);
      ("AS701", 83, 219);
      ("AS1239", 52, 84);
      ("AS3320", 70, 355);
      ("AS3549", 61, 486);
      ("AS3561", 92, 329);
      ("AS4323", 51, 161);
      ("AS7018", 115, 148);
    ]
  in
  List.iter2
    (fun (name, n, m) (p : Isp.preset) ->
      Alcotest.(check string) "name" name p.Isp.as_name;
      Alcotest.(check int) (name ^ " nodes") n p.Isp.nodes;
      Alcotest.(check int) (name ^ " links") m p.Isp.links;
      Alcotest.(check bool) "table2 not approx" false p.Isp.approx)
    expected Isp.table2

let test_extras_flagged () =
  let extras = List.filter (fun p -> not (List.memq p Isp.table2)) Isp.all in
  List.iter
    (fun (p : Isp.preset) ->
      Alcotest.(check bool) (p.Isp.as_name ^ " approx") true p.Isp.approx)
    extras;
  Alcotest.(check int) "two extras" 2 (List.length extras)

let test_load_generates_exact_sizes () =
  List.iter
    (fun (p : Isp.preset) ->
      let t = Isp.load p in
      let g = Rtr_topo.Topology.graph t in
      Alcotest.(check int) (p.Isp.as_name ^ " nodes") p.Isp.nodes (Graph.n_nodes g);
      Alcotest.(check int) (p.Isp.as_name ^ " links") p.Isp.links (Graph.n_links g);
      Alcotest.(check bool)
        (p.Isp.as_name ^ " connected")
        true
        (Rtr_graph.Components.is_connected g))
    Isp.all

let test_cache_identity () =
  let a = Isp.load_by_name "AS209" and b = Isp.load_by_name "AS209" in
  Alcotest.(check bool) "cached physical identity" true (a == b)

let test_find () =
  Alcotest.(check bool) "known" true (Option.is_some (Isp.find "AS7018"));
  Alcotest.(check bool) "unknown" true (Option.is_none (Isp.find "AS9999"));
  Alcotest.check_raises "load_by_name unknown" Not_found (fun () ->
      ignore (Isp.load_by_name "AS9999"))

let suite =
  [
    Alcotest.test_case "table2 matches paper" `Quick test_table2_matches_paper;
    Alcotest.test_case "extras flagged" `Quick test_extras_flagged;
    Alcotest.test_case "load exact sizes" `Slow test_load_generates_exact_sizes;
    Alcotest.test_case "cache identity" `Quick test_cache_identity;
    Alcotest.test_case "find" `Quick test_find;
  ]
