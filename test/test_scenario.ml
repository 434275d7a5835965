module Graph = Rtr_graph.Graph
module Damage = Rtr_failure.Damage
module View = Rtr_graph.View
module Scenario = Rtr_sim.Scenario
module PE = Rtr_topo.Paper_example

let paper_scenario () =
  let topo = PE.topology () in
  let g = Rtr_topo.Topology.graph topo in
  let table = Rtr_routing.Route_table.compute (View.full g) in
  (* An explicit area is awkward for the worked example, so test the
     classifier against a generated one and the worked damage against
     Scenario-independent expectations elsewhere. *)
  let rng = Rtr_util.Rng.make 17 in
  (topo, table, Scenario.generate topo table rng ())

let test_cases_are_valid_detections () =
  let topo, table, s = paper_scenario () in
  let g = Rtr_topo.Topology.graph topo in
  ignore table;
  List.iter
    (fun (c : Scenario.case) ->
      Alcotest.(check bool) "initiator live" true
        (Damage.node_ok s.Scenario.damage c.Scenario.initiator);
      let link =
        Option.get (Graph.find_link g c.Scenario.initiator c.Scenario.trigger)
      in
      Alcotest.(check bool) "trigger locally unreachable" true
        (Damage.neighbor_unreachable s.Scenario.damage c.Scenario.trigger link);
      (* The trigger is the default next hop towards the destination. *)
      Alcotest.(check (option int)) "trigger is the next hop"
        (Some c.Scenario.trigger)
        (Rtr_routing.Route_table.next_hop s.Scenario.table
           ~src:c.Scenario.initiator ~dst:c.Scenario.dst))
    s.Scenario.cases

let test_kinds_match_reachability () =
  let _, _, s = paper_scenario () in
  let node_ok = Damage.node_ok s.Scenario.damage in
  let view = Damage.view s.Scenario.damage in
  List.iter
    (fun (c : Scenario.case) ->
      let reachable =
        node_ok c.Scenario.dst
        && Rtr_graph.Bfs.reachable view c.Scenario.initiator c.Scenario.dst
      in
      match c.Scenario.kind with
      | Scenario.Recoverable ->
          Alcotest.(check bool) "recoverable reachable" true reachable;
          Alcotest.(check bool) "has yardstick" true
            (Option.is_some c.Scenario.shortest_after)
      | Scenario.Irrecoverable ->
          Alcotest.(check bool) "irrecoverable unreachable" false reachable;
          Alcotest.(check (option int)) "no yardstick" None
            c.Scenario.shortest_after)
    s.Scenario.cases

let test_cases_deduplicated () =
  let _, _, s = paper_scenario () in
  let keys =
    List.map
      (fun (c : Scenario.case) -> (c.Scenario.initiator, c.Scenario.dst))
      s.Scenario.cases
  in
  Alcotest.(check int) "unique (initiator, dst) pairs"
    (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_of_area_deterministic () =
  let topo = PE.topology () in
  let g = Rtr_topo.Topology.graph topo in
  let table = Rtr_routing.Route_table.compute (View.full g) in
  let area =
    Rtr_failure.Area.disc ~center:(Rtr_geom.Point.make 310.0 300.0)
      ~radius:50.0
  in
  let s1 = Scenario.of_area topo table area in
  let s2 = Scenario.of_area topo table area in
  Alcotest.(check int) "same cases" (List.length s1.Scenario.cases)
    (List.length s2.Scenario.cases)

let test_count_failed_paths () =
  let topo = PE.topology () in
  let g = Rtr_topo.Topology.graph topo in
  let table = Rtr_routing.Route_table.compute (View.full g) in
  (* No damage: nothing failed. *)
  let r0, i0 = Scenario.count_failed_paths topo table (Damage.none g) in
  Alcotest.(check (pair int int)) "no failures" (0, 0) (r0, i0);
  (* The worked-example damage: both kinds appear and every failed
     pair is counted once. *)
  let damage =
    Damage.of_failed g ~nodes:[ PE.failed_router ] ~links:(PE.cut_links ())
  in
  let r, i = Scenario.count_failed_paths topo table damage in
  Alcotest.(check bool) "some recoverable" true (r > 0);
  (* v10 is dead: all 17 * 2 ordered pairs with a live peer are
     irrecoverable paths... but only those whose default path existed
     and failed, with a live source: towards v10 that is every other
     live node. *)
  Alcotest.(check bool) "some irrecoverable" true (i >= 17)

(* Fig. 11's definition pair by pair: the default path of every
   ordered pair with a live source, materialised and checked link by
   link; a failed one is recoverable iff the destination is still
   reachable. *)
let per_pair_failed_paths topo table damage =
  let g = Rtr_topo.Topology.graph topo in
  let view = Damage.view damage in
  let n = Graph.n_nodes g in
  let recoverable = ref 0 and irrecoverable = ref 0 in
  for s = 0 to n - 1 do
    for t = 0 to n - 1 do
      if s <> t && Damage.node_ok damage s then
        match Rtr_routing.Route_table.default_path table ~src:s ~dst:t with
        | Some p when not (Rtr_graph.Path.is_valid view p) ->
            if Damage.node_ok damage t && Rtr_graph.Bfs.reachable view s t
            then incr recoverable
            else incr irrecoverable
        | Some _ | None -> ()
    done
  done;
  (!recoverable, !irrecoverable)

let test_count_failed_paths_per_pair () =
  let seen = ref (0, 0) in
  let check label topo table damage =
    let ((r, i) as expected) = per_pair_failed_paths topo table damage in
    seen := (fst !seen + r, snd !seen + i);
    Alcotest.(check (pair int int))
      label expected
      (Scenario.count_failed_paths topo table damage)
  in
  List.iter
    (fun (p : Rtr_topo.Isp.preset) ->
      let topo = Rtr_topo.Isp.load p in
      let g = Rtr_topo.Topology.graph topo in
      let table = Rtr_routing.Route_table.compute (View.full g) in
      let rng = Rtr_util.Rng.make 5 in
      for i = 1 to 3 do
        let area = Rtr_failure.Area.random_disc rng ~r_min:100. ~r_max:300. () in
        check
          (Printf.sprintf "%s disc %d" p.Rtr_topo.Isp.as_name i)
          topo table
          (Damage.apply topo area)
      done)
    Rtr_topo.Isp.table2;
  let topo = PE.topology () in
  let g = Rtr_topo.Topology.graph topo in
  let table = Rtr_routing.Route_table.compute (View.full g) in
  check "paper example" topo table
    (Damage.of_failed g ~nodes:[ PE.failed_router ] ~links:(PE.cut_links ()));
  (* Failing v12, v16 and v17 cuts v18 off from the rest. *)
  let cut = Damage.of_failed g ~nodes:[ PE.v 12; PE.v 16; PE.v 17 ] ~links:[] in
  Alcotest.(check bool) "disconnected" false
    (Rtr_graph.Bfs.reachable (Damage.view cut) (PE.v 18) (PE.v 1));
  check "disconnecting damage" topo table cut;
  let r, i = !seen in
  Alcotest.(check bool)
    (Printf.sprintf "both kinds met (%d recoverable, %d irrecoverable)" r i)
    true
    (r > 0 && i > 0)

(* One counter per topology, applied to many damages in a shuffled
   order: the index built from [topo] and [table] must serve every
   damage, whatever came before it. *)
let check_reuse label topo table damages =
  let count = Scenario.count_failed_paths topo table in
  Rtr_util.Rng.shuffle (Rtr_util.Rng.make 23) damages;
  Array.iteri
    (fun i (name, damage) ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "%s, damage %d (%s)" label i name)
        (per_pair_failed_paths topo table damage)
        (count damage))
    damages

let test_classifier_reuse () =
  List.iter
    (fun (p : Rtr_topo.Isp.preset) ->
      let topo = Rtr_topo.Isp.load p in
      let g = Rtr_topo.Topology.graph topo in
      let table = Rtr_routing.Route_table.compute (View.full g) in
      let rng = Rtr_util.Rng.make 11 in
      let discs =
        List.concat_map
          (fun radius ->
            List.init 3 (fun i ->
                let area =
                  Rtr_failure.Area.random_disc rng ~r_min:radius ~r_max:radius
                    ()
                in
                ( Printf.sprintf "r = %.0f, disc %d" radius i,
                  Damage.apply topo area )))
          [ 20.; 100.; 200.; 300. ]
      in
      check_reuse p.Rtr_topo.Isp.as_name topo table
        (Array.of_list (("none", Damage.none g) :: discs)))
    Rtr_topo.Isp.table2

(* The cut roots' corner cases on the paper's example: a dead
   destination, a failed node nested under a failed tree link, and
   the links a dead router takes down with it, which name the router
   itself or a node below it as a root a second time. *)
let test_classifier_cut_roots () =
  let topo = PE.topology () in
  let g = Rtr_topo.Topology.graph topo in
  let n = Graph.n_nodes g in
  let table = Rtr_routing.Route_table.compute (View.full g) in
  let next ~src ~dst = Rtr_routing.Route_table.next_hop table ~src ~dst in
  let count = Scenario.count_failed_paths topo table in
  (* A lone dead router that leaves the rest connected: exactly the
     n - 1 paths towards it are irrecoverable. *)
  let lone = Damage.of_failed g ~nodes:[ PE.v 5 ] ~links:[] in
  Alcotest.(check int) "one component left" 1
    (Rtr_graph.Components.count (Rtr_graph.Components.compute (Damage.view lone)));
  let r, i = count lone in
  Alcotest.(check int) "paths towards the dead router" (n - 1) i;
  Alcotest.(check bool) "paths through it recover" true (r > 0);
  (* [w]'s path to [t] runs through [u <> t]: fail [u]'s tree link and
     [w] itself, so [w]'s subtree nests in [u]'s. *)
  let nested = ref [] in
  for t = 0 to n - 1 do
    for w = 0 to n - 1 do
      match next ~src:w ~dst:t with
      | Some u when u <> t ->
          let link =
            Option.get (Rtr_routing.Route_table.next_link table ~src:u ~dst:t)
          in
          nested :=
            ( Printf.sprintf "v%d under v%d's link towards v%d" w u t,
              Damage.of_failed g ~nodes:[ w ] ~links:[ link ] )
            :: !nested
      | Some _ | None -> ()
    done
  done;
  Alcotest.(check bool) "nested cases exist" true (List.length !nested > 10);
  check_reuse "paper example" topo table
    (Array.of_list
       (List.init n (fun v ->
            (Printf.sprintf "dead v%d" v, Damage.of_failed g ~nodes:[ v ] ~links:[]))
       @ !nested))

(* Edge regimes: a pre-failure topology in two components, whose table
   has [-1] rows, and a single router. *)
let test_classifier_edge_regimes () =
  let topo_of g =
    Rtr_topo.Topology.create ~name:"edge" g
      (Rtr_topo.Embedding.of_points
         (Array.init (Graph.n_nodes g) (fun v ->
              Rtr_geom.Point.make (float_of_int (100 * v)) (float_of_int (v * v)))))
  in
  let g = Graph.build ~n:6 ~edges:[ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5) ] in
  let topo = topo_of g in
  let table = Rtr_routing.Route_table.compute (View.full g) in
  Alcotest.(check (option int)) "no row across components" None
    (Rtr_routing.Route_table.next_hop table ~src:0 ~dst:4);
  let link u v = Option.get (Graph.find_link g u v) in
  let count = Scenario.count_failed_paths topo table in
  (* 3 is cut off: 3->4, 3->5, 4->3 and 5->3 fail irrecoverably. *)
  Alcotest.(check (pair int int)) "isolated router" (0, 4)
    (count (Damage.of_failed g ~nodes:[] ~links:[ link 3 4 ]));
  check_reuse "two components" topo table
    [|
      ("none", Damage.none g);
      ("dead 1", Damage.of_failed g ~nodes:[ 1 ] ~links:[]);
      ("dead 4", Damage.of_failed g ~nodes:[ 4 ] ~links:[]);
      ("link 3-4", Damage.of_failed g ~nodes:[] ~links:[ link 3 4 ]);
      ("dead 5, link 0-1", Damage.of_failed g ~nodes:[ 5 ] ~links:[ link 0 1 ]);
      ( "everything",
        Damage.of_failed g ~nodes:[ 0; 1; 2; 3; 4; 5 ] ~links:[] );
    |];
  let single = Graph.build ~n:1 ~edges:[] in
  let topo = topo_of single in
  let table = Rtr_routing.Route_table.compute (View.full single) in
  let count = Scenario.count_failed_paths topo table in
  Alcotest.(check (pair int int)) "1 node, no damage" (0, 0)
    (count (Damage.none single));
  Alcotest.(check (pair int int)) "1 node, dead" (0, 0)
    (count (Damage.of_failed single ~nodes:[ 0 ] ~links:[]))

let suite =
  [
    Alcotest.test_case "cases are valid detections" `Quick
      test_cases_are_valid_detections;
    Alcotest.test_case "kinds match reachability" `Quick
      test_kinds_match_reachability;
    Alcotest.test_case "cases deduplicated" `Quick test_cases_deduplicated;
    Alcotest.test_case "of_area deterministic" `Quick test_of_area_deterministic;
    Alcotest.test_case "count failed paths" `Quick test_count_failed_paths;
    Alcotest.test_case "count failed paths = per-pair definition" `Quick
      test_count_failed_paths_per_pair;
    Alcotest.test_case "classifier: shuffled reuse" `Quick test_classifier_reuse;
    Alcotest.test_case "classifier: cut roots" `Quick test_classifier_cut_roots;
    Alcotest.test_case "classifier: edge regimes" `Quick
      test_classifier_edge_regimes;
  ]
