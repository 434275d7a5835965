module Graph = Rtr_graph.Graph
module View = Rtr_graph.View
module Spt = Rtr_graph.Spt
module Dijkstra = Rtr_graph.Dijkstra
module Reference = Rtr_check.Reference
module Metrics = Rtr_obs.Metrics

(* The arena counters are find-or-create by name, so grabbing them here
   yields the same handles the hot path bumps. *)
let c_ws_alloc = Metrics.counter "spt.ws_alloc"
let c_ws_reuse = Metrics.counter "spt.ws_reuse"

let check_same_tree name (reference : Spt.t) (borrowed : Spt.t) =
  Alcotest.(check (array int))
    (name ^ ": dist") reference.Spt.dist borrowed.Spt.dist;
  Alcotest.(check (array int))
    (name ^ ": parent_node")
    reference.Spt.parent_node borrowed.Spt.parent_node;
  Alcotest.(check (array int))
    (name ^ ": parent_link")
    reference.Spt.parent_link borrowed.Spt.parent_link

(* Pseudo-random but deterministic damage: every fifth node from 3 and
   every seventh link from 2.  Roots are chosen to survive it. *)
let node_ok v = v mod 5 <> 3

let damaged g =
  let dead ok n = List.filter (fun i -> not (ok i)) (List.init n Fun.id) in
  View.of_failed g
    ~nodes:(dead node_ok (Graph.n_nodes g))
    ~links:(dead (fun id -> id mod 7 <> 2) (Graph.n_links g))

(* One arena reused across different graph sizes, roots, views, and
   directions must stay bit-identical to the textbook reference.  Each
   comparison happens before the next borrow, per the borrowing
   discipline. *)
let test_reuse_matches_reference () =
  let ws = Dijkstra.Workspace.create () in
  (* Revisit earlier sizes so the arena both grows and shrinks. *)
  let sizes = [ 8; 21; 8; 34; 21 ] in
  List.iteri
    (fun i n ->
      let g =
        Rtr_check.Gen.random_weighted_graph ~seed:((i * 131) + n) ~n
          ~extra:(n / 2) ~max_cost:9
      in
      let full = View.full g in
      let damaged = damaged g in
      List.iter
        (fun root ->
          List.iter
            (fun direction ->
              let name view_name =
                Printf.sprintf "n=%d root=%d %s %s" n root view_name
                  (match direction with
                  | Spt.From_root -> "from"
                  | Spt.To_root -> "to")
              in
              let b = Dijkstra.spt ~workspace:ws full ~root ~direction () in
              check_same_tree (name "full")
                (Reference.spt full ~root ~direction) b;
              let b = Dijkstra.spt ~workspace:ws damaged ~root ~direction () in
              check_same_tree (name "damaged")
                (Reference.spt damaged ~root ~direction) b)
            [ Spt.From_root; Spt.To_root ])
        [ 0; 1; n - 1 ])
    sizes

(* Same differential through the domain's own arena ([Workspace.get]),
   which the routing table and phase 2 use. *)
let test_domain_arena_matches_reference () =
  let ws = Dijkstra.Workspace.get () in
  let g = Rtr_check.Gen.random_weighted_graph ~seed:77 ~n:26 ~extra:13 ~max_cost:7 in
  let damaged = damaged g in
  List.iter
    (fun root ->
      let reference = Reference.spt damaged ~root ~direction:Spt.From_root in
      let b = Dijkstra.spt ~workspace:ws damaged ~root () in
      check_same_tree (Printf.sprintf "root=%d" root) reference b)
    [ 0; 5; 25 ]

let test_get_is_per_domain_singleton () =
  Alcotest.(check bool) "same arena" true
    (Dijkstra.Workspace.get () == Dijkstra.Workspace.get ())

(* First borrow against a given node count allocates; later borrows on
   that node count reuse; a graph with another node count reallocates. *)
let test_alloc_reuse_counters () =
  let ws = Dijkstra.Workspace.create () in
  let g1 = Rtr_check.Gen.random_weighted_graph ~seed:5 ~n:12 ~extra:6 ~max_cost:5 in
  let g2 = Rtr_check.Gen.random_weighted_graph ~seed:6 ~n:19 ~extra:4 ~max_cost:5 in
  let v1 = View.full g1 and v2 = View.full g2 in
  let a0 = Metrics.Counter.value c_ws_alloc
  and r0 = Metrics.Counter.value c_ws_reuse in
  ignore (Dijkstra.spt ~workspace:ws v1 ~root:0 ());
  Alcotest.(check int) "fresh arena allocates" (a0 + 1)
    (Metrics.Counter.value c_ws_alloc);
  ignore (Dijkstra.spt ~workspace:ws v1 ~root:3 ());
  ignore (Dijkstra.spt ~workspace:ws v1 ~root:7 ~direction:Spt.To_root ());
  Alcotest.(check int) "same shape reuses" (r0 + 2)
    (Metrics.Counter.value c_ws_reuse);
  Alcotest.(check int) "no extra alloc on reuse" (a0 + 1)
    (Metrics.Counter.value c_ws_alloc);
  ignore (Dijkstra.spt ~workspace:ws v2 ~root:0 ());
  Alcotest.(check int) "shape change reallocates" (a0 + 2)
    (Metrics.Counter.value c_ws_alloc)

(* The arena holds only node-indexed scratch, so two graphs with one
   node count but different link counts share it: one allocation at
   most (for the first borrow), reuse for the second graph, and both
   trees still equal the reference. *)
let test_same_node_count_reuses_arena () =
  let ws = Dijkstra.Workspace.create () in
  let sparse = Rtr_check.Gen.random_weighted_graph ~seed:5 ~n:15 ~extra:2 ~max_cost:5 in
  let dense = Rtr_check.Gen.random_weighted_graph ~seed:7 ~n:15 ~extra:12 ~max_cost:5 in
  Alcotest.(check bool) "link counts differ" true
    (Graph.n_links sparse <> Graph.n_links dense);
  let a0 = Metrics.Counter.value c_ws_alloc
  and r0 = Metrics.Counter.value c_ws_reuse in
  List.iter
    (fun g ->
      let view = View.full g in
      check_same_tree
        (Printf.sprintf "%d links" (Graph.n_links g))
        (Reference.spt view ~root:0 ~direction:Spt.From_root)
        (Dijkstra.spt ~workspace:ws view ~root:0 ()))
    [ sparse; dense ];
  let alloc = Metrics.Counter.value c_ws_alloc - a0 in
  Alcotest.(check bool)
    (Printf.sprintf "ws_alloc moved by %d (want <= 1)" alloc)
    true (alloc <= 1);
  Alcotest.(check int) "second graph reuses" (r0 + 1)
    (Metrics.Counter.value c_ws_reuse)

(* An owned run must not touch the arena counters — [?workspace] is
   strictly opt-in. *)
let test_owned_runs_bypass_arena () =
  let g = Rtr_check.Gen.random_weighted_graph ~seed:9 ~n:10 ~extra:5 ~max_cost:5 in
  let a0 = Metrics.Counter.value c_ws_alloc
  and r0 = Metrics.Counter.value c_ws_reuse in
  ignore (Dijkstra.spt (View.full g) ~root:0 ());
  Alcotest.(check int) "no alloc" a0 (Metrics.Counter.value c_ws_alloc);
  Alcotest.(check int) "no reuse" r0 (Metrics.Counter.value c_ws_reuse)

(* The production hot path: a route table is one To_root run per
   destination on the domain's own arena, so an all-roots sweep over
   AS209 allocates at most once (when the arena last held another
   shape) and reuses the arena for every other root. *)
let test_route_table_sweep_reuses_domain_arena () =
  let topo = Rtr_topo.Isp.load (Option.get (Rtr_topo.Isp.find "AS209")) in
  let full = View.full (Rtr_topo.Topology.graph topo) in
  let a0 = Metrics.Counter.value c_ws_alloc
  and r0 = Metrics.Counter.value c_ws_reuse in
  ignore (Rtr_routing.Route_table.compute full);
  let alloc = Metrics.Counter.value c_ws_alloc - a0
  and reuse = Metrics.Counter.value c_ws_reuse - r0 in
  Alcotest.(check bool)
    (Printf.sprintf "ws_alloc moved by %d (want <= 1)" alloc)
    true (alloc <= 1);
  Alcotest.(check bool)
    (Printf.sprintf "ws_reuse moved by %d (want > %d)" reuse alloc)
    true (reuse > alloc)

let workspace_matches_reference_qcheck =
  QCheck.Test.make ~name:"workspace spt equals reference" ~count:60
    QCheck.(pair (int_range 4 40) small_nat)
    (fun (n, seed) ->
      let g =
        Rtr_check.Gen.random_weighted_graph ~seed ~n ~extra:(seed mod 9)
          ~max_cost:11
      in
      let ws = Dijkstra.Workspace.get () in
      let damaged = damaged g in
      let root = seed mod n in
      let root = if node_ok root then root else (root + 1) mod n in
      let direction = if seed mod 2 = 0 then Spt.From_root else Spt.To_root in
      let reference = Reference.spt damaged ~root ~direction in
      let b = Dijkstra.spt ~workspace:ws damaged ~root ~direction () in
      reference.Spt.dist = b.Spt.dist
      && reference.Spt.parent_node = b.Spt.parent_node
      && reference.Spt.parent_link = b.Spt.parent_link)

let suite =
  [
    Alcotest.test_case "reuse across sizes/roots/views/directions" `Quick
      test_reuse_matches_reference;
    Alcotest.test_case "domain arena differential" `Quick
      test_domain_arena_matches_reference;
    Alcotest.test_case "get is a per-domain singleton" `Quick
      test_get_is_per_domain_singleton;
    Alcotest.test_case "alloc/reuse counters" `Quick test_alloc_reuse_counters;
    Alcotest.test_case "same node count, other link count reuses" `Quick
      test_same_node_count_reuses_arena;
    Alcotest.test_case "owned runs bypass arena" `Quick
      test_owned_runs_bypass_arena;
    Alcotest.test_case "route-table sweep reuses the domain arena" `Quick
      test_route_table_sweep_reuses_domain_arena;
    QCheck_alcotest.to_alcotest workspace_matches_reference_qcheck;
  ]
