module Graph = Rtr_graph.Graph

(* The triangle plus a pendant: 0-1, 1-2, 0-2, 2-3. *)
let diamond () = Graph.build ~n:4 ~edges:[ (0, 1); (1, 2); (0, 2); (2, 3) ]

let test_sizes () =
  let g = diamond () in
  Alcotest.(check int) "nodes" 4 (Graph.n_nodes g);
  Alcotest.(check int) "links" 4 (Graph.n_links g)

let test_endpoints_canonical () =
  let g = Graph.build ~n:3 ~edges:[ (2, 0) ] in
  Alcotest.(check (pair int int)) "smaller first" (0, 2) (Graph.endpoints g 0)

let test_other_end () =
  let g = diamond () in
  let id = Option.get (Graph.find_link g 2 3) in
  Alcotest.(check int) "other of 2" 3 (Graph.other_end g id 2);
  Alcotest.(check int) "other of 3" 2 (Graph.other_end g id 3);
  Alcotest.check_raises "not an endpoint"
    (Invalid_argument "Graph.other_end: node not an endpoint") (fun () ->
      ignore (Graph.other_end g id 0))

let test_asymmetric_costs () =
  let g = Graph.build_weighted ~n:2 ~edges:[ (1, 0, 7, 3) ] in
  let id = Option.get (Graph.find_link g 0 1) in
  (* (1, 0, 7, 3): cost 1->0 is 7, cost 0->1 is 3. *)
  Alcotest.(check int) "cost from 1" 7 (Graph.cost g id ~src:1);
  Alcotest.(check int) "cost from 0" 3 (Graph.cost g id ~src:0)

let test_validation () =
  let inv msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  ignore inv;
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.build: self loop")
    (fun () -> ignore (Graph.build ~n:2 ~edges:[ (1, 1) ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Graph.build: duplicate edge (1,0)") (fun () ->
      ignore (Graph.build ~n:2 ~edges:[ (0, 1); (1, 0) ]));
  Alcotest.check_raises "range"
    (Invalid_argument "Graph: node 5 out of range [0,3)") (fun () ->
      ignore (Graph.build ~n:3 ~edges:[ (0, 5) ]));
  Alcotest.check_raises "bad cost"
    (Invalid_argument "Graph.build: nonpositive cost") (fun () ->
      ignore (Graph.build_weighted ~n:2 ~edges:[ (0, 1, 0, 1) ]))

let test_neighbors_sorted () =
  let g = Graph.build ~n:5 ~edges:[ (2, 4); (2, 0); (2, 3); (2, 1) ] in
  let ns = Array.to_list (Array.map fst (Graph.neighbors g 2)) in
  Alcotest.(check (list int)) "ascending" [ 0; 1; 3; 4 ] ns;
  Alcotest.(check int) "degree" 4 (Graph.degree g 2);
  Alcotest.(check int) "leaf degree" 1 (Graph.degree g 0)

let test_iter_fold () =
  let g = diamond () in
  let count = ref 0 in
  Graph.iter_links g (fun _ _ _ -> incr count);
  Alcotest.(check int) "iter_links" 4 !count;
  let sum_deg =
    Graph.fold_neighbors g 2 ~init:0 ~f:(fun acc _ _ -> acc + 1)
  in
  Alcotest.(check int) "fold_neighbors" 3 sum_deg;
  let total =
    Graph.fold_links g ~init:0 ~f:(fun acc _ u v -> acc + u + v)
  in
  Alcotest.(check int) "fold_links endpoint sum" (0 + 1 + 1 + 2 + 0 + 2 + 2 + 3)
    total

let test_find_link_and_name () =
  let g = diamond () in
  Alcotest.(check bool) "not adjacent" true (Graph.find_link g 0 3 = None);
  let id = Option.get (Graph.find_link g 3 2) in
  Alcotest.(check bool) "either direction" true
    (Graph.find_link g 2 3 = Some id);
  Alcotest.(check string) "name" "e2,3" (Graph.link_name g id)

let adjacency_consistent =
  QCheck.Test.make ~name:"every link appears in both adjacency lists" ~count:50
    QCheck.(int_range 2 30)
    (fun n ->
      let rng = Rtr_util.Rng.make n in
      let edges = ref [] in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Rtr_util.Rng.bool rng then edges := (u, v) :: !edges
        done
      done;
      match !edges with
      | [] -> true
      | edges ->
          let g = Graph.build ~n ~edges in
          Graph.fold_links g ~init:true ~f:(fun acc id u v ->
              acc
              && Array.exists (fun (w, i) -> w = v && i = id) (Graph.neighbors g u)
              && Array.exists (fun (w, i) -> w = u && i = id) (Graph.neighbors g v)))

let suite =
  [
    Alcotest.test_case "sizes" `Quick test_sizes;
    Alcotest.test_case "endpoints canonical" `Quick test_endpoints_canonical;
    Alcotest.test_case "other_end" `Quick test_other_end;
    Alcotest.test_case "asymmetric costs" `Quick test_asymmetric_costs;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "neighbors sorted" `Quick test_neighbors_sorted;
    Alcotest.test_case "iter/fold" `Quick test_iter_fold;
    Alcotest.test_case "find_link and name" `Quick test_find_link_and_name;
    QCheck_alcotest.to_alcotest adjacency_consistent;
  ]
