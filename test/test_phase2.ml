module Graph = Rtr_graph.Graph
module Damage = Rtr_failure.Damage
module Phase1 = Rtr_core.Phase1
module Phase2 = Rtr_core.Phase2
module View = Rtr_graph.View
module Path = Rtr_graph.Path
module PE = Rtr_topo.Paper_example

let setup () =
  let topo = PE.topology () in
  let g = Rtr_topo.Topology.graph topo in
  let damage =
    Damage.of_failed g ~nodes:[ PE.failed_router ] ~links:(PE.cut_links ())
  in
  let p1 = Phase1.run topo damage ~initiator:PE.initiator ~trigger:PE.trigger () in
  (topo, g, damage, p1)

(* The links absent from the session's view, ascending. *)
let removed_links p2 =
  let view = Phase2.view p2 in
  List.filter
    (fun id -> not (View.link_ok view id))
    (List.init (Graph.n_links (View.graph view)) Fun.id)

let of_phase1 topo damage p1 =
  Phase2.create topo damage ~initiator:p1.Phase1.initiator
    ~removed:p1.Phase1.failed_links

let test_view_removes_collected_and_local () =
  let topo, _, damage, p1 = setup () in
  let p2 = of_phase1 topo damage p1 in
  let removed = removed_links p2 in
  (* Everything phase 1 collected is removed... *)
  List.iter
    (fun id ->
      Alcotest.(check bool) "collected removed" true (List.mem id removed))
    p1.Phase1.failed_links;
  (* ...and so are the initiator's own broken adjacencies. *)
  Alcotest.(check bool) "local e6,11 removed" true
    (List.mem (PE.link 6 11) removed)

let test_path_avoids_view () =
  let topo, g, damage, p1 = setup () in
  let p2 = of_phase1 topo damage p1 in
  match Phase2.recovery_path p2 ~dst:PE.destination with
  | None -> Alcotest.fail "path expected"
  | Some path ->
      let removed = removed_links p2 in
      List.iter
        (fun id ->
          Alcotest.(check bool) "route avoids removed links" false
            (List.mem id removed))
        (Path.links g path);
      Alcotest.(check int) "rooted at the initiator" PE.initiator
        (Path.source path)

let test_caching_counts_once_per_destination () =
  let topo, _, damage, p1 = setup () in
  let p2 = of_phase1 topo damage p1 in
  Alcotest.(check int) "no calculation yet" 0 (Phase2.sp_calculations p2);
  ignore (Phase2.recovery_path p2 ~dst:PE.destination);
  ignore (Phase2.recovery_path p2 ~dst:PE.destination);
  ignore (Phase2.recovery_path p2 ~dst:PE.destination);
  Alcotest.(check int) "cached" 1 (Phase2.sp_calculations p2);
  ignore (Phase2.recovery_path p2 ~dst:(PE.v 18));
  Alcotest.(check int) "second destination" 2 (Phase2.sp_calculations p2)

(* BENCH_0003 regression: the [phase2.cache_hits] counter itself (not
   just [sp_calculations]) must move when a destination is re-queried —
   it sat at 0 for a whole 200-case run because no workload path ever
   asked twice. *)
let test_repeated_destination_bumps_cache_hits () =
  let c = Rtr_obs.Metrics.counter "phase2.cache_hits" in
  let topo, _, damage, p1 = setup () in
  let p2 = of_phase1 topo damage p1 in
  let v0 = Rtr_obs.Metrics.Counter.value c in
  ignore (Phase2.recovery_path p2 ~dst:PE.destination);
  Alcotest.(check int) "first demand is a miss" v0
    (Rtr_obs.Metrics.Counter.value c);
  ignore (Phase2.recovery_path p2 ~dst:PE.destination);
  ignore (Phase2.recovery_distance p2 ~dst:PE.destination);
  Alcotest.(check int) "repeats are hits" (v0 + 2)
    (Rtr_obs.Metrics.Counter.value c)

let test_unreachable_destination () =
  (* A pocket: the initiator's only neighbour dies, so its local
     knowledge alone already proves the destination unreachable and
     phase 2 reports None. *)
  let open Rtr_geom in
  let g = Graph.build ~n:3 ~edges:[ (0, 1); (1, 2) ] in
  let emb =
    Rtr_topo.Embedding.of_points
      [| Point.make 0.0 0.0; Point.make 100.0 0.0; Point.make 200.0 0.0 |]
  in
  let topo = Rtr_topo.Topology.create ~name:"pocket" g emb in
  let damage = Damage.of_failed g ~nodes:[ 1 ] ~links:[] in
  let p1 = Phase1.run topo damage ~initiator:0 ~trigger:1 () in
  Alcotest.(check bool) "walk degenerates" true
    (p1.Phase1.status = Phase1.No_live_neighbor);
  let p2 = of_phase1 topo damage p1 in
  Alcotest.(check bool) "None for cut destination" true
    (Phase2.recovery_path p2 ~dst:2 = None);
  Alcotest.(check (option int)) "distance agrees" None
    (Phase2.recovery_distance p2 ~dst:2)

let test_uncollectable_failure_gives_false_path () =
  (* v18's neighbours v12, v16, v17 all die: no live router can report
     v18's links, so the view keeps a phantom path and the packet is
     dropped in flight — the Sec. III-D behaviour, not a false
     "unreachable" verdict. *)
  let topo, g, _, _ = setup () in
  let damage =
    Damage.of_failed g ~nodes:[ PE.v 16; PE.v 17; PE.v 12 ] ~links:[]
  in
  let session =
    Rtr_core.Rtr.start topo damage ~initiator:(PE.v 11) ~trigger:(PE.v 12) ()
  in
  match Rtr_core.Rtr.recover session ~dst:(PE.v 18) with
  | Rtr_core.Rtr.False_path { dropped_at; _ } ->
      Alcotest.(check bool) "dropped at a live router" true
        (Damage.node_ok damage dropped_at)
  | Rtr_core.Rtr.Recovered _ -> Alcotest.fail "destination is unreachable"
  | Rtr_core.Rtr.Unreachable_in_view ->
      Alcotest.fail "these failures are not collectable"

let test_extra_removed () =
  let topo, g, damage, p1 = setup () in
  (* Carrying e5,12 as already-known failure forces a different
     route. *)
  let p2 =
    Phase2.create topo damage ~initiator:PE.initiator
      ~removed:(PE.link 5 12 :: p1.Phase1.failed_links)
  in
  match Phase2.recovery_path p2 ~dst:PE.destination with
  | None -> Alcotest.fail "still reachable"
  | Some path ->
      Alcotest.(check bool) "avoids the carried link" false
        (List.mem (PE.link 5 12) (Path.links g path))

let distances_equal_scratch =
  QCheck.Test.make
    ~name:"phase-2 distances equal scratch dijkstra over the view" ~count:60
    QCheck.(pair (int_range 6 30) (int_range 0 400))
    (fun (n, salt) ->
      let topo = Rtr_check.Gen.random_topology ~seed:(n + salt) ~n in
      let g = Rtr_topo.Topology.graph topo in
      let damage = Rtr_check.Gen.random_damage ~seed:(salt * 3) topo in
      List.for_all
        (fun (initiator, trigger) ->
          let p1 = Rtr_core.Phase1.run topo damage ~initiator ~trigger () in
          let p2 = of_phase1 topo damage p1 in
          let removed = removed_links p2 in
          List.for_all
            (fun dst ->
              let expected =
                Rtr_graph.Dijkstra.distance
                  (View.of_failed g ~nodes:[] ~links:removed)
                  ~src:initiator ~dst
              in
              Phase2.recovery_distance p2 ~dst = expected)
            (List.filter (fun v -> v <> initiator)
               (List.init (Graph.n_nodes g) Fun.id)))
        (match Rtr_check.Gen.detectors topo damage with
        | [] -> []
        | x :: _ -> [ x ]))

let suite =
  [
    Alcotest.test_case "view removal" `Quick test_view_removes_collected_and_local;
    Alcotest.test_case "path avoids view" `Quick test_path_avoids_view;
    Alcotest.test_case "caching" `Quick test_caching_counts_once_per_destination;
    Alcotest.test_case "repeated destination bumps cache hits" `Quick
      test_repeated_destination_bumps_cache_hits;
    Alcotest.test_case "unreachable destination" `Quick test_unreachable_destination;
    Alcotest.test_case "uncollectable failure gives false path" `Quick
      test_uncollectable_failure_gives_false_path;
    Alcotest.test_case "extra removed (multi-area)" `Quick test_extra_removed;
    QCheck_alcotest.to_alcotest distances_equal_scratch;
  ]
