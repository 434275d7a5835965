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
  ]
