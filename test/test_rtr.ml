module Graph = Rtr_graph.Graph
module Damage = Rtr_failure.Damage
module View = Rtr_graph.View
module Rtr = Rtr_core.Rtr
module Path = Rtr_graph.Path
module PE = Rtr_topo.Paper_example

let paper_session () =
  let topo = PE.topology () in
  let g = Rtr_topo.Topology.graph topo in
  let damage =
    Damage.of_failed g ~nodes:[ PE.failed_router ] ~links:(PE.cut_links ())
  in
  (topo, g, damage,
   Rtr.start topo damage ~initiator:PE.initiator ~trigger:PE.trigger ())

let test_paper_recovery () =
  let _, _, damage, session = paper_session () in
  match Rtr.recover session ~dst:PE.destination with
  | Rtr.Recovered path ->
      Alcotest.(check bool) "survives the true damage" true
        (Path.is_valid (Damage.view damage) path);
      Alcotest.(check int) "one calculation" 1 (Rtr.sp_calculations session)
  | _ -> Alcotest.fail "expected recovery"

let test_all_destinations_one_phase1 () =
  let _, g, _, session = paper_session () in
  let p1_before = Rtr.phase1 session in
  for dst = 0 to Graph.n_nodes g - 1 do
    if dst <> PE.initiator && dst <> PE.failed_router then
      ignore (Rtr.recover session ~dst)
  done;
  let p1_after = Rtr.phase1 session in
  Alcotest.(check bool) "phase 1 ran once for all destinations" true
    (p1_before == p1_after);
  Alcotest.(check int) "one calculation per destination" 16
    (Rtr.sp_calculations session)

(* Theorem 3: under any single link failure, every broken pair is
   recovered with a shortest path. *)
let theorem3_single_link_failure =
  QCheck.Test.make ~name:"Theorem 3: single link failure always recovers"
    ~count:60
    QCheck.(pair (int_range 5 25) (int_range 0 200))
    (fun (n, salt) ->
      let topo = Rtr_check.Gen.random_topology ~seed:(n * 11 + salt) ~n in
      let g = Rtr_topo.Topology.graph topo in
      let failed_link = salt mod Graph.n_links g in
      (* Only meaningful when the graph stays connected. *)
      let view = View.of_failed g ~nodes:[] ~links:[ failed_link ] in
      let still_connected =
        Rtr_graph.Components.count (Rtr_graph.Components.compute view) = 1
      in
      QCheck.assume still_connected;
      let damage = Damage.of_failed g ~nodes:[] ~links:[ failed_link ] in
      let u, v = Graph.endpoints g failed_link in
      List.for_all
        (fun (initiator, trigger) ->
          let session = Rtr.start topo damage ~initiator ~trigger () in
          List.for_all
            (fun dst ->
              if dst = initiator then true
              else
                match Rtr.recover session ~dst with
                | Rtr.Recovered path ->
                    let best =
                      Option.get
                        (Rtr_graph.Dijkstra.distance view ~src:initiator ~dst)
                    in
                    Path.cost g path = best
                | Rtr.Unreachable_in_view | Rtr.False_path _ -> false)
            (List.init (Graph.n_nodes g) Fun.id))
        [ (u, v); (v, u) ])

(* Theorem 2 on area failures: whenever RTR delivers, the path is a
   shortest path of the truly damaged graph. *)
let theorem2_recovered_is_optimal =
  QCheck.Test.make ~name:"Theorem 2: recovered implies shortest" ~count:120
    QCheck.(pair (int_range 6 35) (int_range 0 1000))
    (fun (n, salt) ->
      let topo = Rtr_check.Gen.random_topology ~seed:(n + (salt * 37)) ~n in
      let g = Rtr_topo.Topology.graph topo in
      let damage = Rtr_check.Gen.random_damage ~seed:(salt + 99) topo in
      let truth = Damage.view damage in
      List.for_all
        (fun (initiator, trigger) ->
          let session = Rtr.start topo damage ~initiator ~trigger () in
          List.for_all
            (fun dst ->
              if dst = initiator then true
              else
                match Rtr.recover session ~dst with
                | Rtr.Recovered path -> (
                    match
                      Rtr_graph.Dijkstra.distance truth ~src:initiator ~dst
                    with
                    | Some best -> Path.cost g path = best
                    | None -> false)
                | Rtr.Unreachable_in_view | Rtr.False_path _ -> true)
            (List.init (Graph.n_nodes g) Fun.id))
        (match Rtr_check.Gen.detectors topo damage with [] -> [] | x :: _ -> [ x ]))

(* RTR never reports "unreachable" for a destination that is in fact
   reachable: E1 never contains live links, so the view only shrinks by
   true failures. *)
let no_false_unreachable =
  QCheck.Test.make ~name:"no false unreachable verdicts" ~count:120
    QCheck.(pair (int_range 6 35) (int_range 0 1000))
    (fun (n, salt) ->
      let topo = Rtr_check.Gen.random_topology ~seed:(salt + (n * 53)) ~n in
      let g = Rtr_topo.Topology.graph topo in
      let damage = Rtr_check.Gen.random_damage ~seed:(salt * 7) topo in
      let truth = Damage.view damage in
      List.for_all
        (fun (initiator, trigger) ->
          let session = Rtr.start topo damage ~initiator ~trigger () in
          List.for_all
            (fun dst ->
              if dst = initiator then true
              else
                match Rtr.recover session ~dst with
                | Rtr.Unreachable_in_view ->
                    not
                      (Rtr_graph.Bfs.reachable truth initiator dst)
                | Rtr.Recovered _ | Rtr.False_path _ -> true)
            (List.init (Graph.n_nodes g) Fun.id))
        (match Rtr_check.Gen.detectors topo damage with [] -> [] | x :: _ -> [ x ]))

(* Two sessions live on one domain, queried alternately with uncached
   destinations: each owns its tree, so each answers exactly as it does
   alone, at one calculation per destination. *)
let test_overlapping_sessions () =
  let topo, g, damage, _ = paper_session () in
  let (ia, ta), (ib, tb) =
    match Rtr_check.Gen.detectors topo damage with
    | a :: rest -> (
        match List.find_opt (fun (i, _) -> i <> fst a) rest with
        | Some b -> (a, b)
        | None -> Alcotest.fail "need two distinct initiators")
    | [] -> Alcotest.fail "need two distinct initiators"
  in
  let start initiator trigger = Rtr.start topo damage ~initiator ~trigger () in
  let answer s dst = (Rtr.recover s ~dst, Rtr.recovery_distance s ~dst) in
  let dsts =
    List.filter
      (fun v -> v <> ia && v <> ib)
      (List.init (Graph.n_nodes g) Fun.id)
  in
  let a = start ia ta and b = start ib tb in
  let interleaved =
    List.map
      (fun dst ->
        let ra = answer a dst in
        (ra, answer b dst))
      dsts
  in
  let alone_a = List.map (answer (start ia ta)) dsts in
  let alone_b = List.map (answer (start ib tb)) dsts in
  Alcotest.(check bool) "A answers as alone" true
    (List.map fst interleaved = alone_a);
  Alcotest.(check bool) "B answers as alone" true
    (List.map snd interleaved = alone_b);
  Alcotest.(check int) "A: one calculation per destination" (List.length dsts)
    (Rtr.sp_calculations a);
  Alcotest.(check int) "B: one calculation per destination" (List.length dsts)
    (Rtr.sp_calculations b)

let suite =
  [
    Alcotest.test_case "paper recovery" `Quick test_paper_recovery;
    Alcotest.test_case "one phase1, many destinations" `Quick
      test_all_destinations_one_phase1;
    Alcotest.test_case "overlapping sessions" `Quick test_overlapping_sessions;
    QCheck_alcotest.to_alcotest theorem3_single_link_failure;
    QCheck_alcotest.to_alcotest theorem2_recovered_is_optimal;
    QCheck_alcotest.to_alcotest no_false_unreachable;
  ]
