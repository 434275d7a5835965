module Graph = Rtr_graph.Graph
module View = Rtr_graph.View
module Dijkstra = Rtr_graph.Dijkstra
module Spt = Rtr_graph.Spt
module Inc = Rtr_graph.Incremental_spt

let dists t = Array.copy t.Spt.dist

let test_single_link_removal () =
  let g = Graph.build ~n:4 ~edges:[ (0, 1); (1, 2); (2, 3); (0, 3) ] in
  let t = Dijkstra.spt (View.full g) ~root:0 () in
  Alcotest.(check int) "before" 1 (Spt.dist t 1);
  let link01 = Option.get (Graph.find_link g 0 1) in
  let view = View.remove_links (View.full g) [ link01 ] in
  let touched = Inc.remove t ~dead_links:[ link01 ] ~view () in
  Alcotest.(check bool) "some repair happened" true (touched >= 1);
  Alcotest.(check int) "detour to 1" 3 (Spt.dist t 1);
  Alcotest.(check int) "2 via 3" 2 (Spt.dist t 2)

let test_disconnection () =
  let g = Graph.build ~n:3 ~edges:[ (0, 1); (1, 2) ] in
  let t = Dijkstra.spt (View.full g) ~root:0 () in
  let link12 = Option.get (Graph.find_link g 1 2) in
  let view = View.remove_links (View.full g) [ link12 ] in
  ignore (Inc.remove t ~dead_links:[ link12 ] ~view ());
  Alcotest.(check bool) "2 cut off" true (not (Spt.reached t 2));
  Alcotest.(check int) "1 untouched" 1 (Spt.dist t 1)

let test_node_removal () =
  let g = Graph.build ~n:4 ~edges:[ (0, 1); (1, 2); (2, 3); (0, 3) ] in
  let t = Dijkstra.spt (View.full g) ~root:0 () in
  let view = View.of_failed g ~nodes:[ 1 ] ~links:[] in
  ignore (Inc.remove t ~dead_nodes:[ 1 ] ~view ());
  Alcotest.(check bool) "dead node unreachable" true (not (Spt.reached t 1));
  Alcotest.(check int) "2 rerouted" 2 (Spt.dist t 2)

let test_root_death () =
  let g = Graph.build ~n:2 ~edges:[ (0, 1) ] in
  let t = Dijkstra.spt (View.full g) ~root:0 () in
  let view = View.of_failed g ~nodes:[ 0 ] ~links:[] in
  ignore (Inc.remove t ~dead_nodes:[ 0 ] ~view ());
  Alcotest.(check bool) "everything invalid" true (not (Spt.reached t 1))

let test_restore_roundtrip () =
  let g = Graph.build ~n:4 ~edges:[ (0, 1); (1, 2); (2, 3); (0, 3) ] in
  let t = Dijkstra.spt (View.full g) ~root:0 () in
  let original = dists t in
  let link01 = Option.get (Graph.find_link g 0 1) in
  let damaged = View.remove_links (View.full g) [ link01 ] in
  ignore (Inc.remove t ~dead_links:[ link01 ] ~view:damaged ());
  let improved = Inc.restore t ~new_links:[ link01 ] ~view:(View.full g) () in
  ignore improved;
  Alcotest.(check (array int)) "distances restored" original (dists t)

let test_restore_reconnects_node () =
  let g = Graph.build ~n:3 ~edges:[ (0, 1); (1, 2) ] in
  let t =
    Dijkstra.spt (View.of_failed g ~nodes:[ 2 ] ~links:[]) ~root:0 ()
  in
  Alcotest.(check bool) "2 initially out" true (not (Spt.reached t 2));
  let improved = Inc.restore t ~new_nodes:[ 2 ] ~view:(View.full g) () in
  Alcotest.(check int) "one node improved" 1 improved;
  Alcotest.(check int) "now reachable" 2 (Spt.dist t 2)

(* The central property: incremental repair equals recomputation from
   scratch, on random graphs, random deletions, both directions. *)
let matches_scratch direction =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "incremental remove = scratch dijkstra (%s)"
         (match direction with Spt.From_root -> "from_root" | Spt.To_root -> "to_root"))
    ~count:80
    QCheck.(pair (int_range 3 35) (int_range 1 97))
    (fun (n, salt) ->
      let g =
        Rtr_check.Gen.random_weighted_graph ~seed:(n + (salt * 1000)) ~n ~extra:n
          ~max_cost:7
      in
      let rng = Rtr_util.Rng.make (salt * 31) in
      let dead =
        List.filter
          (fun _ -> Rtr_util.Rng.bool rng)
          (List.init (Graph.n_links g) Fun.id)
      in
      let view = View.remove_links (View.full g) dead in
      let t = Dijkstra.spt (View.full g) ~root:0 ~direction () in
      ignore (Inc.remove t ~dead_links:dead ~view ());
      let fresh = Dijkstra.spt view ~root:0 ~direction () in
      t.Spt.dist = fresh.Spt.dist)

let restore_matches_scratch =
  QCheck.Test.make ~name:"incremental restore = scratch dijkstra" ~count:80
    QCheck.(pair (int_range 3 35) (int_range 1 97))
    (fun (n, salt) ->
      let g =
        Rtr_check.Gen.random_weighted_graph ~seed:(n + (salt * 777)) ~n ~extra:n
          ~max_cost:7
      in
      let rng = Rtr_util.Rng.make salt in
      let dead =
        List.filter
          (fun _ -> Rtr_util.Rng.bool rng)
          (List.init (Graph.n_links g) Fun.id)
      in
      (* Start from the damaged tree, then bring the links back. *)
      let damaged = View.remove_links (View.full g) dead in
      let t = Dijkstra.spt damaged ~root:0 () in
      ignore (Inc.restore t ~new_links:dead ~view:(View.full g) ());
      let fresh = Dijkstra.spt (View.full g) ~root:0 () in
      t.Spt.dist = fresh.Spt.dist)

let suite =
  [
    Alcotest.test_case "single link removal" `Quick test_single_link_removal;
    Alcotest.test_case "disconnection" `Quick test_disconnection;
    Alcotest.test_case "node removal" `Quick test_node_removal;
    Alcotest.test_case "root death" `Quick test_root_death;
    Alcotest.test_case "restore roundtrip" `Quick test_restore_roundtrip;
    Alcotest.test_case "restore reconnects" `Quick test_restore_reconnects_node;
    QCheck_alcotest.to_alcotest (matches_scratch Spt.From_root);
    QCheck_alcotest.to_alcotest (matches_scratch Spt.To_root);
    QCheck_alcotest.to_alcotest restore_matches_scratch;
  ]
