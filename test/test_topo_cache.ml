module Graph = Rtr_graph.Graph
module Topo_cache = Rtr_sim.Topo_cache
module Metrics = Rtr_obs.Metrics
open Rtr_geom

let c_table_hits = Metrics.counter "topo_cache.table_hits"
let c_table_misses = Metrics.counter "topo_cache.table_misses"
let c_post_hits = Metrics.counter "topo_cache.post_hits"
let c_post_misses = Metrics.counter "topo_cache.post_misses"

let make_topo name =
  let pts =
    [|
      Point.make 0.0 0.0;
      Point.make 10.0 0.0;
      Point.make 0.0 10.0;
      Point.make 10.0 10.0;
    |]
  in
  let g = Graph.build ~n:4 ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  Rtr_topo.Topology.create ~name g (Rtr_topo.Embedding.of_points pts)

(* The headline BENCH_0003 bug: every stage built a private cache, so
   [topo_cache.table_hits] stayed 0 across a whole run.  [shared] must
   hand the same cache back for the same loaded topology... *)
let test_shared_is_shared () =
  let topo = make_topo "tc-shared" in
  let c1 = Topo_cache.shared topo in
  let c2 = Topo_cache.shared topo in
  Alcotest.(check bool) "same cache instance" true (c1 == c2)

(* ...so a repeated table demand is a hit, not a recompute. *)
let test_repeated_table_demand_hits () =
  let topo = make_topo "tc-hits" in
  let h0 = Metrics.Counter.value c_table_hits
  and m0 = Metrics.Counter.value c_table_misses in
  let t1 = Topo_cache.table (Topo_cache.shared topo) in
  Alcotest.(check int) "first demand misses" (m0 + 1)
    (Metrics.Counter.value c_table_misses);
  let t2 = Topo_cache.table (Topo_cache.shared topo) in
  Alcotest.(check int) "second demand hits" (h0 + 1)
    (Metrics.Counter.value c_table_hits);
  Alcotest.(check int) "no second compute" (m0 + 1)
    (Metrics.Counter.value c_table_misses);
  Alcotest.(check bool) "same table" true (t1 == t2)

(* A distinct topology that happens to reuse a name must not inherit the
   stale cache (the physical-equality guard). *)
let test_same_name_distinct_topo_gets_fresh_cache () =
  let a = make_topo "tc-alias" in
  let b = make_topo "tc-alias" in
  let ca = Topo_cache.shared a in
  let cb = Topo_cache.shared b in
  Alcotest.(check bool) "fresh cache for fresh topo" false (ca == cb);
  Alcotest.(check bool) "replacement is stable" true (cb == Topo_cache.shared b)

(* One registry: the harness's [Rtr_sim.Topo_cache] and the flow
   engine's [Rtr_routing.Topo_cache] hand out the same cache, and a
   [Flowsim.context] takes its pre-failure table from it instead of
   computing its own. *)
let test_flowsim_context_shares_table () =
  let topo = make_topo "tc-flowsim" in
  Alcotest.(check bool) "one registry" true
    (Topo_cache.shared topo == Rtr_routing.Topo_cache.shared topo);
  ignore (Topo_cache.table (Topo_cache.shared topo));
  let h0 = Metrics.Counter.value c_table_hits
  and m0 = Metrics.Counter.value c_table_misses in
  let g = Rtr_topo.Topology.graph topo in
  ignore
    (Rtr_des.Flowsim.context topo (Rtr_failure.Damage.none g)
       Rtr_des.Flowsim.default_config);
  Alcotest.(check int) "context hits the cache" (h0 + 1)
    (Metrics.Counter.value c_table_hits);
  Alcotest.(check int) "context computes no table" m0
    (Metrics.Counter.value c_table_misses)

(* --- the post-failure slot ------------------------------------------ *)

module Damage = Rtr_failure.Damage
module Route_table = Rtr_routing.Route_table

let paper_damage g =
  Damage.of_failed g
    ~nodes:[ Rtr_topo.Paper_example.failed_router ]
    ~links:(Rtr_topo.Paper_example.cut_links ())

(* Counter deltas over [f ()]: (hits, misses). *)
let post_counts f =
  let h0 = Metrics.Counter.value c_post_hits
  and m0 = Metrics.Counter.value c_post_misses in
  let x = f () in
  ( x,
    Metrics.Counter.value c_post_hits - h0,
    Metrics.Counter.value c_post_misses - m0 )

(* The slot serves exactly the table a caller would compute itself: on
   the paper example and on three random discs of two Table II ASes. *)
let test_post_table_equals_compute () =
  let check label topo damage =
    let table = Topo_cache.post_table (Topo_cache.shared topo) damage in
    Alcotest.(check bool) label true
      (Route_table.equal table (Route_table.compute (Damage.view damage)))
  in
  let paper = Rtr_topo.Paper_example.topology () in
  check "paper example" paper (paper_damage (Rtr_topo.Topology.graph paper));
  List.iter
    (fun name ->
      let topo = Rtr_topo.Isp.load (Option.get (Rtr_topo.Isp.find name)) in
      let pre = Topo_cache.table (Topo_cache.shared topo) in
      let rng = Rtr_util.Rng.make 11 in
      for i = 1 to 3 do
        let scenario = Rtr_sim.Scenario.generate topo pre rng () in
        check
          (Printf.sprintf "%s disc %d" name i)
          topo scenario.Rtr_sim.Scenario.damage
      done)
    [ "AS1239"; "AS3549" ]

let test_post_table_repeat_hits () =
  let topo = Rtr_topo.Paper_example.topology () in
  let cache = Topo_cache.create topo in
  let damage = paper_damage (Rtr_topo.Topology.graph topo) in
  let (t1, t2), hits, misses =
    post_counts (fun () ->
        let t1 = Topo_cache.post_table cache damage in
        (t1, Topo_cache.post_table cache damage))
  in
  Alcotest.(check bool) "same table" true (t1 == t2);
  Alcotest.(check int) "one miss" 1 misses;
  Alcotest.(check int) "one hit" 1 hits

(* The slot matches by physical equality: an equal damage built anew is
   a miss, recomputed to an equal table. *)
let test_post_table_equal_damage_misses () =
  let topo = Rtr_topo.Paper_example.topology () in
  let g = Rtr_topo.Topology.graph topo in
  let cache = Topo_cache.create topo in
  let d1 = paper_damage g and d2 = paper_damage g in
  Alcotest.(check bool) "equal damages" true (Damage.equal d1 d2);
  let t1 = Topo_cache.post_table cache d1 in
  let t2, hits, misses = post_counts (fun () -> Topo_cache.post_table cache d2) in
  Alcotest.(check int) "a miss" 1 misses;
  Alcotest.(check int) "no hit" 0 hits;
  Alcotest.(check bool) "fresh table" false (t1 == t2);
  Alcotest.(check bool) "equal table" true (Route_table.equal t1 t2)

(* The congestion sweep's pattern: one context per scheme on one
   damage computes its post-failure table once. *)
let test_scheme_contexts_share_post_table () =
  let topo = Rtr_topo.Paper_example.topology () in
  let damage = paper_damage (Rtr_topo.Topology.graph topo) in
  let (), hits, misses =
    post_counts (fun () ->
        List.iter
          (fun scheme ->
            ignore
              (Rtr_des.Flowsim.context topo damage
                 { Rtr_des.Flowsim.default_config with scheme }))
          Rtr_sim.Experiments.congestion_schemes)
  in
  Alcotest.(check int) "five schemes" 5
    (List.length Rtr_sim.Experiments.congestion_schemes);
  Alcotest.(check int) "one miss" 1 misses;
  Alcotest.(check int) "four hits" 4 hits

let post_suite =
  [
    Alcotest.test_case "post table equals a fresh compute" `Quick
      test_post_table_equals_compute;
    Alcotest.test_case "repeated damage is a hit" `Quick
      test_post_table_repeat_hits;
    Alcotest.test_case "equal, distinct damage misses" `Quick
      test_post_table_equal_damage_misses;
    Alcotest.test_case "five scheme contexts: 1 miss, 4 hits" `Quick
      test_scheme_contexts_share_post_table;
  ]

let suite =
  [
    Alcotest.test_case "shared returns one cache per topology" `Quick
      test_shared_is_shared;
    Alcotest.test_case "repeated table demand is a hit" `Quick
      test_repeated_table_demand_hits;
    Alcotest.test_case "same name, distinct topo: fresh cache" `Quick
      test_same_name_distinct_topo_gets_fresh_cache;
    Alcotest.test_case "flowsim context shares the table" `Quick
      test_flowsim_context_shares_table;
  ]
