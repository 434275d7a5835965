module Runner = Rtr_sim.Runner
module Scenario = Rtr_sim.Scenario

let small_run () =
  let topo = Rtr_topo.Isp.load_by_name "AS1239" in
  let g = Rtr_topo.Topology.graph topo in
  let table = Rtr_routing.Route_table.compute (Rtr_graph.View.full g) in
  let mrc = Rtr_baselines.Mrc.build_auto g in
  let rng = Rtr_util.Rng.make 31 in
  let rec first_nonempty tries =
    let s = Scenario.generate topo table rng () in
    if s.Scenario.cases <> [] || tries > 50 then s else first_nonempty (tries + 1)
  in
  let scenario = first_nonempty 0 in
  (scenario, Runner.run_scenario ~mrc scenario)

let test_one_result_per_case () =
  let scenario, results = small_run () in
  Alcotest.(check int) "arity"
    (List.length scenario.Scenario.cases)
    (List.length results)

let test_rtr_invariants () =
  let _, results = small_run () in
  List.iter
    (fun (r : Runner.result) ->
      Alcotest.(check bool) "phase 1 completed" true r.Runner.rtr_p1_completed;
      Alcotest.(check int) "one byte record per hop" r.Runner.rtr_p1_hops
        (List.length r.Runner.rtr_p1_bytes);
      Alcotest.(check int) "rtr always one calculation" 1
        (Runner.rtr_sp_calculations r);
      (match r.Runner.rtr_stretch with
      | Some s ->
          Alcotest.(check (float 1e-9)) "Theorem 2: stretch exactly 1" 1.0 s
      | None -> ());
      if r.Runner.rtr_recovered then
        Alcotest.(check int) "no waste when recovered" 0 r.Runner.rtr_wasted_tx;
      match r.Runner.case.Scenario.kind with
      | Scenario.Recoverable -> ()
      | Scenario.Irrecoverable ->
          Alcotest.(check bool) "never recovered" false r.Runner.rtr_recovered)
    results

let test_fcp_invariants () =
  let _, results = small_run () in
  List.iter
    (fun (r : Runner.result) ->
      Alcotest.(check bool) "at least one calculation" true (r.Runner.fcp_calcs >= 1);
      match r.Runner.case.Scenario.kind with
      | Scenario.Recoverable ->
          Alcotest.(check bool) "fcp always delivers recoverable" true
            r.Runner.fcp_delivered;
          (match r.Runner.fcp_stretch with
          | Some s -> Alcotest.(check bool) "stretch >= 1" true (s >= 1.0 -. 1e-9)
          | None -> Alcotest.fail "delivered implies stretch")
      | Scenario.Irrecoverable ->
          Alcotest.(check bool) "fcp never delivers irrecoverable" false
            r.Runner.fcp_delivered)
    results

let test_mrc_invariants () =
  let _, results = small_run () in
  List.iter
    (fun (r : Runner.result) ->
      match (r.Runner.mrc_delivered, r.Runner.mrc_stretch) with
      | true, Some s -> Alcotest.(check bool) "stretch >= 1" true (s >= 1.0 -. 1e-9)
      | true, None ->
          (* Irrecoverable cases have no yardstick, so no stretch. *)
          Alcotest.(check bool) "only without yardstick" true
            (r.Runner.case.Scenario.shortest_after = None)
      | false, Some _ -> Alcotest.fail "stretch without delivery"
      | false, None -> ())
    results

(* Regression: sessions must be keyed by (initiator, trigger), not by
   initiator alone.  Phase 1's walk starts at the trigger, so two cases
   sharing an initiator but detecting through different triggers are
   distinct sessions — a cache keyed on the initiator only would hand
   the second case the first case's walk. *)
let test_sessions_keyed_by_initiator_and_trigger () =
  let topo = Rtr_topo.Paper_example.topology () in
  let g = Rtr_topo.Topology.graph topo in
  let table = Rtr_routing.Route_table.compute (Rtr_graph.View.full g) in
  let module PE = Rtr_topo.Paper_example in
  let damage =
    Rtr_failure.Damage.of_failed g ~nodes:[ PE.failed_router ]
      ~links:(PE.cut_links ())
  in
  (* Find a live router that detects the failure through two distinct
     dead-end neighbours (e.g. a neighbour of the failed router that
     also lost a cut link). *)
  let initiator, triggers =
    let rec find u =
      if u >= Rtr_graph.Graph.n_nodes g then
        Alcotest.fail "expected an initiator with two distinct triggers"
      else if Rtr_failure.Damage.node_ok damage u then
        match
          List.map fst (Rtr_failure.Damage.unreachable_neighbors damage g u)
        with
        | _ :: _ :: _ as ts -> (u, ts)
        | _ -> find (u + 1)
      else find (u + 1)
    in
    find 0
  in
  match triggers with
  | t1 :: t2 :: _ ->
      let case trigger =
        {
          Scenario.initiator;
          trigger;
          dst = PE.destination;
          kind = Scenario.Recoverable;
          shortest_after = None;
        }
      in
      let scenario =
        {
          Scenario.topo;
          table;
          area =
            Rtr_failure.Area.disc
              ~center:(Rtr_geom.Point.make 0.0 0.0)
              ~radius:1.0;
          damage;
          cases = [ case t1; case t2 ];
        }
      in
      let mrc = Rtr_baselines.Mrc.build_auto g in
      let results = Runner.run_scenario ~mrc scenario in
      List.iter2
        (fun trigger (r : Runner.result) ->
          let p1 =
            Rtr_core.Phase1.run topo damage ~initiator ~trigger ()
          in
          Alcotest.(check int)
            (Printf.sprintf "phase-1 hops for trigger v%d" trigger)
            p1.Rtr_core.Phase1.hops r.Runner.rtr_p1_hops)
        [ t1; t2 ] results
  | _ -> Alcotest.fail "expected two distinct triggers at the initiator"

(* BENCH_0003 regression at the harness level: the runner reads each
   recovered case's stretch numerator back through the per-destination
   phase-2 cache, so any run with a recovered case must record cache
   hits — the counter sat at 0 for 10k+ calculations before. *)
let test_recovered_cases_hit_phase2_cache () =
  let c = Rtr_obs.Metrics.counter "phase2.cache_hits" in
  let v0 = Rtr_obs.Metrics.Counter.value c in
  let _, results = small_run () in
  let recovered =
    List.length (List.filter (fun r -> r.Runner.rtr_recovered) results)
  in
  Alcotest.(check bool) "at least one hit per recovered case" true
    (Rtr_obs.Metrics.Counter.value c - v0 >= recovered)

(* FCP's work counters split every recomputation into a held-tree
   miss (a Dijkstra ran) or hit, and are added once per route call, so
   over a scenario they sum to the results' own calculation counts. *)
let test_fcp_work_counters () =
  let scenario, _ = small_run () in
  let mrc =
    Rtr_baselines.Mrc.build_auto (Rtr_topo.Topology.graph scenario.Scenario.topo)
  in
  let value name =
    Rtr_obs.Metrics.Counter.value (Rtr_obs.Metrics.counter ("fcp." ^ name))
  in
  let r0 = value "recomputations" and b0 = value "trees_built"
  and u0 = value "trees_reused" in
  let results = Runner.run_scenario ~mrc scenario in
  let recomputations = value "recomputations" - r0
  and built = value "trees_built" - b0
  and reused = value "trees_reused" - u0 in
  Alcotest.(check int) "built + reused = recomputations" recomputations
    (built + reused);
  Alcotest.(check int) "recomputations = sum of fcp_calcs"
    (List.fold_left (fun acc r -> acc + r.Runner.fcp_calcs) 0 results)
    recomputations;
  Alcotest.(check bool) "some tree was built" true (built >= 1)

let suite =
  [
    Alcotest.test_case "one result per case" `Quick test_one_result_per_case;
    Alcotest.test_case "recovered cases hit the phase-2 cache" `Quick
      test_recovered_cases_hit_phase2_cache;
    Alcotest.test_case "sessions keyed by (initiator, trigger)" `Quick
      test_sessions_keyed_by_initiator_and_trigger;
    Alcotest.test_case "rtr invariants" `Quick test_rtr_invariants;
    Alcotest.test_case "fcp invariants" `Quick test_fcp_invariants;
    Alcotest.test_case "fcp work counters" `Quick test_fcp_work_counters;
    Alcotest.test_case "mrc invariants" `Quick test_mrc_invariants;
  ]
