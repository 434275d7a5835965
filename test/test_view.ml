(* The view layer: the mask algebra itself, then every traversal over
   a view checked against [Rtr_check.Reference], the textbook Dijkstra
   that shares no code with the graph layer. *)

module Graph = Rtr_graph.Graph
module View = Rtr_graph.View
module Dijkstra = Rtr_graph.Dijkstra
module Bfs = Rtr_graph.Bfs
module Components = Rtr_graph.Components
module Spt = Rtr_graph.Spt
module Path = Rtr_graph.Path
module Damage = Rtr_failure.Damage
module Route_table = Rtr_routing.Route_table
module Reference = Rtr_check.Reference

(* ------------------------------------------------------------------ *)
(* Unit tests for the mask algebra itself *)

let diamond () = Graph.build ~n:4 ~edges:[ (0, 1); (1, 3); (0, 2); (2, 3) ]

let live v = Format.asprintf "%a" View.pp v

let test_full () =
  let g = diamond () in
  let v = View.full g in
  Alcotest.(check string) "all live" "view(4/4 nodes, 4/4 links live)" (live v);
  for u = 0 to 3 do
    Alcotest.(check bool) "node live" true (View.node_ok v u)
  done

let test_of_failed_and_remove () =
  let g = diamond () in
  let l01 = Option.get (Graph.find_link g 0 1) in
  let v = View.of_failed g ~nodes:[ 2 ] ~links:[ l01 ] in
  Alcotest.(check bool) "node 2 dead" false (View.node_ok v 2);
  Alcotest.(check bool) "link 0-1 dead" false (View.link_ok v l01);
  Alcotest.(check string) "three live" "view(3/4 nodes, 3/4 links live)"
    (live v);
  let parent = View.of_failed g ~nodes:[ 2 ] ~links:[] in
  let v2 = View.remove_links parent [ l01 ] in
  Alcotest.(check bool) "derivation agrees" true (View.equal v v2);
  (* Deriving never mutates the parent. *)
  Alcotest.(check bool) "parent untouched" true (View.link_ok parent l01)

let test_masked_adjacency () =
  let g = diamond () in
  let l01 = Option.get (Graph.find_link g 0 1) in
  let v = View.remove_links (View.full g) [ l01 ] in
  let seen = ref [] in
  View.iter_neighbors v 0 (fun n id -> seen := (n, id) :: !seen);
  Alcotest.(check (list (pair int int)))
    "only the live neighbour"
    [ (2, Option.get (Graph.find_link g 0 2)) ]
    (List.rev !seen)

(* ------------------------------------------------------------------ *)
(* Traversals against the reference on randomly damaged topologies *)

(* A random disc damage on a generated (unit-cost) topology. *)
let damaged_instance ~seed ~n =
  let topo = Rtr_check.Gen.random_topology ~seed ~n in
  let damage = Rtr_check.Gen.random_damage ~seed:(seed * 3 + 1) topo in
  (Rtr_topo.Topology.graph topo, Damage.view damage)

let spt_equal (a : Spt.t) (b : Spt.t) =
  a.Spt.dist = b.Spt.dist
  && a.Spt.parent_node = b.Spt.parent_node
  && a.Spt.parent_link = b.Spt.parent_link

(* Every row of the table is the reference's To_root tree. *)
let table_matches_reference view =
  let t = Route_table.compute view in
  let n = Graph.n_nodes (View.graph view) in
  List.for_all
    (fun dst ->
      let r = Reference.spt view ~root:dst ~direction:Spt.To_root in
      Route_table.next_row t ~dst = r.Spt.parent_node
      && Route_table.link_row t ~dst = r.Spt.parent_link
      && Array.init n (fun src -> Route_table.dist t ~src ~dst) = r.Spt.dist)
    (List.init n Fun.id)

let dijkstra_matches_reference direction =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "view dijkstra = reference (%s)"
         (match direction with
         | Spt.From_root -> "from_root"
         | Spt.To_root -> "to_root"))
    ~count:80
    QCheck.(pair (int_range 5 35) (int_range 0 500))
    (fun (n, salt) ->
      let _, view = damaged_instance ~seed:(n + salt) ~n in
      let root = salt mod n in
      spt_equal
        (Dijkstra.spt view ~root ~direction ())
        (Reference.spt view ~root ~direction))

(* On unit costs BFS hop counts are the reference distances, and each
   BFS parent is a live neighbour one hop closer to the source. *)
let bfs_matches_reference =
  QCheck.Test.make ~name:"view bfs = reference" ~count:80
    QCheck.(pair (int_range 5 35) (int_range 0 500))
    (fun (n, salt) ->
      let g, view = damaged_instance ~seed:(n * 7 + salt) ~n in
      let source = salt mod n in
      let b = Bfs.run view ~source in
      let r = Reference.spt view ~root:source ~direction:Spt.From_root in
      b.Bfs.dist = r.Spt.dist
      && List.for_all
           (fun v ->
             let p = b.Bfs.parent.(v) in
             if v = source || not (Spt.reached r v) then p = -1
             else
               match Graph.find_link g p v with
               | Some id ->
                   View.link_ok view id && r.Spt.dist.(p) + 1 = r.Spt.dist.(v)
               | None -> false)
           (List.init n Fun.id))

let components_match_reference =
  QCheck.Test.make ~name:"view components = reference" ~count:80
    QCheck.(pair (int_range 5 35) (int_range 0 500))
    (fun (n, salt) ->
      let _, view = damaged_instance ~seed:(n * 13 + salt) ~n in
      let c = Components.compute view in
      List.for_all
        (fun u ->
          let r = Reference.spt view ~root:u ~direction:Spt.From_root in
          List.for_all
            (fun v -> Components.same c u v = Spt.reached r v)
            (List.init n Fun.id))
        (List.init n Fun.id))

let route_table_matches_reference =
  QCheck.Test.make ~name:"view route table = reference" ~count:30
    QCheck.(pair (int_range 5 25) (int_range 0 300))
    (fun (n, salt) ->
      table_matches_reference (snd (damaged_instance ~seed:(n * 17 + salt) ~n)))

(* A path is valid exactly when every node and every hop's link is live;
   every path of the reference tree is valid. *)
let path_validity_matches_reference =
  QCheck.Test.make ~name:"view path validity = reference" ~count:80
    QCheck.(pair (int_range 5 30) (int_range 0 500))
    (fun (n, salt) ->
      let g, view = damaged_instance ~seed:(n * 23 + salt) ~n in
      (* Walk a random path over the undamaged graph. *)
      let rng = Rtr_util.Rng.make (salt + 5) in
      let rec walk u acc steps =
        if steps = 0 then List.rev acc
        else
          let nbrs =
            Graph.fold_neighbors g u ~init:[] ~f:(fun l v _ -> v :: l)
          in
          match nbrs with
          | [] -> List.rev acc
          | _ ->
              let v = List.nth nbrs (Rtr_util.Rng.int rng (List.length nbrs)) in
              walk v (v :: acc) (steps - 1)
      in
      let start = salt mod n in
      let nodes = walk start [ start ] (1 + (salt mod 6)) in
      let live =
        List.for_all (View.node_ok view) nodes
        && List.for_all (View.link_ok view) (Path.links g (Path.of_nodes nodes))
      in
      let r = Reference.spt view ~root:start ~direction:Spt.From_root in
      Path.is_valid view (Path.of_nodes nodes) = live
      && List.for_all
           (fun v ->
             match Spt.path r v with
             | Some p -> Path.is_valid view p
             | None -> true)
           (List.init n Fun.id))

(* The same checks on a real (Rocketfuel-format) topology with
   asymmetric weights, exercising the parser-fed path. *)
let weights_sample =
  {|Seattle,WA Portland,OR 2.5
Portland,OR Seattle,WA 2.5
Seattle,WA Denver,CO 10
Denver,CO Seattle,WA 12
Denver,CO Portland,OR 8.4
Portland,OR Denver,CO 8.4
Denver,CO Chicago,IL 6
Chicago,IL Denver,CO 6
Chicago,IL Portland,OR 20
Portland,OR Chicago,IL 19
|}

let rocketfuel_matches_reference =
  QCheck.Test.make ~name:"rocketfuel: view stack = reference" ~count:40
    QCheck.(int_range 0 1000)
    (fun salt ->
      let topo =
        Result.get_ok (Rtr_topo.Rocketfuel.of_weights ~seed:1 weights_sample)
      in
      let g = Rtr_topo.Topology.graph topo in
      let rng = Rtr_util.Rng.make salt in
      let dead_links =
        List.filter
          (fun _ -> Rtr_util.Rng.bool rng)
          (List.init (Graph.n_links g) Fun.id)
      in
      let view = View.of_failed g ~nodes:[] ~links:dead_links in
      let root = salt mod Graph.n_nodes g in
      spt_equal
        (Dijkstra.spt view ~root ~direction:Spt.To_root ())
        (Reference.spt view ~root ~direction:Spt.To_root)
      && table_matches_reference view)

let suite =
  [
    Alcotest.test_case "full" `Quick test_full;
    Alcotest.test_case "of_failed / remove / derive" `Quick
      test_of_failed_and_remove;
    Alcotest.test_case "masked adjacency" `Quick test_masked_adjacency;
    QCheck_alcotest.to_alcotest (dijkstra_matches_reference Spt.From_root);
    QCheck_alcotest.to_alcotest (dijkstra_matches_reference Spt.To_root);
    QCheck_alcotest.to_alcotest bfs_matches_reference;
    QCheck_alcotest.to_alcotest components_match_reference;
    QCheck_alcotest.to_alcotest route_table_matches_reference;
    QCheck_alcotest.to_alcotest path_validity_matches_reference;
    QCheck_alcotest.to_alcotest rocketfuel_matches_reference;
  ]
