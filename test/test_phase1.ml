open Rtr_geom
module Graph = Rtr_graph.Graph
module Damage = Rtr_failure.Damage
module Phase1 = Rtr_core.Phase1
module Embedding = Rtr_topo.Embedding
module PE = Rtr_topo.Paper_example

(* A planar 3x3 grid, 100 apart; the centre node (4) fails.  Node ids:
   0 1 2 / 3 4 5 / 6 7 8 (row-major, y grows upward by row). *)
let grid () =
  let pts =
    Array.init 9 (fun i ->
        Point.make (float_of_int (i mod 3) *. 100.0)
          (float_of_int (i / 3) *. 100.0))
  in
  let edges =
    [ (0, 1); (1, 2); (3, 4); (4, 5); (6, 7); (7, 8) ]
    @ [ (0, 3); (3, 6); (1, 4); (4, 7); (2, 5); (5, 8) ]
  in
  let g = Graph.build ~n:9 ~edges in
  Rtr_topo.Topology.create ~name:"grid" g (Embedding.of_points pts)

let test_planar_ring_walk () =
  let topo = grid () in
  let g = Rtr_topo.Topology.graph topo in
  let d = Damage.of_failed g ~nodes:[ 4 ] ~links:[] in
  let p1 = Phase1.run topo d ~initiator:1 ~trigger:4 () in
  Alcotest.(check bool) "completed" true (p1.Phase1.status = Phase1.Completed);
  (* The walk circles the dead centre and visits all four of its live
     neighbours, so it collects the three failed links not incident to
     the initiator. *)
  let expected =
    List.sort compare
      [
        Option.get (Graph.find_link g 3 4);
        Option.get (Graph.find_link g 4 7);
        Option.get (Graph.find_link g 4 5);
      ]
  in
  Alcotest.(check (list int)) "collects the centre's other links" expected
    (List.sort compare p1.Phase1.failed_links);
  Alcotest.(check bool) "no cross links on a planar grid" true
    (p1.Phase1.cross_links = []);
  (* Closed walk: starts and ends at the initiator. *)
  Alcotest.(check int) "starts at initiator" 1 (List.hd p1.Phase1.walk);
  Alcotest.(check int) "ends at initiator" 1
    (List.nth p1.Phase1.walk (List.length p1.Phase1.walk - 1))

let test_no_live_neighbor () =
  let topo = grid () in
  let g = Rtr_topo.Topology.graph topo in
  (* Node 0's neighbours 1 and 3 both die. *)
  let d = Damage.of_failed g ~nodes:[ 1; 3 ] ~links:[] in
  let p1 = Phase1.run topo d ~initiator:0 ~trigger:1 () in
  Alcotest.(check bool) "no live neighbour" true
    (p1.Phase1.status = Phase1.No_live_neighbor);
  Alcotest.(check (list int)) "trivial walk" [ 0 ] p1.Phase1.walk;
  Alcotest.(check int) "no hops" 0 p1.Phase1.hops

let test_trigger_validation () =
  let topo = grid () in
  let g = Rtr_topo.Topology.graph topo in
  let d = Damage.of_failed g ~nodes:[ 4 ] ~links:[] in
  Alcotest.check_raises "reachable trigger"
    (Invalid_argument "Phase1.run: trigger is reachable") (fun () ->
      ignore (Phase1.run topo d ~initiator:0 ~trigger:1 ()));
  Alcotest.check_raises "non neighbour"
    (Invalid_argument "Phase1.run: trigger not a neighbour") (fun () ->
      ignore (Phase1.run topo d ~initiator:0 ~trigger:4 ()))

let test_initiator_links_not_recorded () =
  let topo = grid () in
  let g = Rtr_topo.Topology.graph topo in
  let d = Damage.of_failed g ~nodes:[ 4 ] ~links:[] in
  let p1 = Phase1.run topo d ~initiator:1 ~trigger:4 () in
  let l14 = Option.get (Graph.find_link g 1 4) in
  Alcotest.(check bool) "own link omitted" false
    (List.mem l14 p1.Phase1.failed_links)

let test_tree_branch_traversed_twice () =
  (* A line 0-1-2 with a failed stub at 1: the walk must go out and
     back, crossing e0,1 twice. *)
  let pts =
    [|
      Point.make 0.0 0.0;
      Point.make 100.0 0.0;
      Point.make 200.0 0.0;
      Point.make 100.0 100.0;
    |]
  in
  let g = Graph.build ~n:4 ~edges:[ (0, 1); (1, 2); (1, 3) ] in
  let topo = Rtr_topo.Topology.create ~name:"stub" g (Embedding.of_points pts) in
  let d = Damage.of_failed g ~nodes:[ 3 ] ~links:[] in
  let p1 = Phase1.run topo d ~initiator:1 ~trigger:3 () in
  Alcotest.(check bool) "completed" true (p1.Phase1.status = Phase1.Completed);
  (* All of v1's neighbours get visited; branch links appear twice. *)
  let visits v = List.length (List.filter (( = ) v) p1.Phase1.walk) in
  Alcotest.(check bool) "v0 and v2 both visited" true
    (visits 0 >= 1 && visits 2 >= 1)

let test_header_bytes_monotone () =
  let topo = grid () in
  let g = Rtr_topo.Topology.graph topo in
  let d = Damage.of_failed g ~nodes:[ 4 ] ~links:[] in
  let p1 = Phase1.run topo d ~initiator:1 ~trigger:4 () in
  let bytes = List.map (fun s -> s.Phase1.header_bytes) p1.Phase1.steps in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "append-only header" true (monotone bytes);
  Alcotest.(check int) "final size matches fields"
    (Rtr_routing.Header.rtr_phase1
       ~n_failed:(List.length p1.Phase1.failed_links)
       ~n_cross:(List.length p1.Phase1.cross_links))
    (List.nth bytes (List.length bytes - 1))

let test_duration_model () =
  let topo = grid () in
  let g = Rtr_topo.Topology.graph topo in
  let d = Damage.of_failed g ~nodes:[ 4 ] ~links:[] in
  let p1 = Phase1.run topo d ~initiator:1 ~trigger:4 () in
  Alcotest.(check (float 1e-9)) "1.8 ms per hop"
    (float_of_int p1.Phase1.hops *. 1.8e-3)
    (Phase1.duration_s p1)

(* Theorem 1 on random instances: the walk always terminates by
   closing the cycle (never the hop cap, never stuck mid-walk). *)
let theorem1_no_permanent_loops =
  QCheck.Test.make ~name:"Theorem 1: phase 1 terminates cleanly" ~count:150
    QCheck.(pair (int_range 6 40) (int_range 0 1000))
    (fun (n, salt) ->
      let topo = Rtr_check.Gen.random_topology ~seed:(n + (salt * 1009)) ~n in
      let damage = Rtr_check.Gen.random_damage ~seed:salt topo in
      List.for_all
        (fun (initiator, trigger) ->
          let p1 = Phase1.run topo damage ~initiator ~trigger () in
          match p1.Phase1.status with
          | Phase1.Completed | Phase1.No_live_neighbor -> true
          | Phase1.Hop_limit | Phase1.Stuck _ -> false)
        (Rtr_check.Gen.detectors topo damage))

(* Soundness of collection (premise of Theorem 2): E1 is a subset of
   the truly failed links, and never contains initiator-incident
   links. *)
let collection_sound =
  QCheck.Test.make ~name:"E1 subset of E2, initiator links omitted" ~count:150
    QCheck.(pair (int_range 6 40) (int_range 0 1000))
    (fun (n, salt) ->
      let topo = Rtr_check.Gen.random_topology ~seed:(n + (salt * 2003)) ~n in
      let g = Rtr_topo.Topology.graph topo in
      let damage = Rtr_check.Gen.random_damage ~seed:(salt + 5) topo in
      List.for_all
        (fun (initiator, trigger) ->
          let p1 = Phase1.run topo damage ~initiator ~trigger () in
          List.for_all
            (fun id ->
              Damage.link_failed damage id
              &&
              let u, v = Graph.endpoints g id in
              u <> initiator && v <> initiator)
            p1.Phase1.failed_links)
        (Rtr_check.Gen.detectors topo damage))

(* The walk stays on live ground: every visited node is live and every
   traversed link usable. *)
let walk_is_live =
  QCheck.Test.make ~name:"walk only visits live nodes over live links"
    ~count:100
    QCheck.(pair (int_range 6 30) (int_range 0 500))
    (fun (n, salt) ->
      let topo = Rtr_check.Gen.random_topology ~seed:(n * 3 + salt) ~n in
      let damage = Rtr_check.Gen.random_damage ~seed:(salt * 13) topo in
      List.for_all
        (fun (initiator, trigger) ->
          let p1 = Phase1.run topo damage ~initiator ~trigger () in
          List.for_all (Damage.node_ok damage) p1.Phase1.walk
          && List.for_all
               (fun s -> Damage.link_ok damage s.Phase1.via)
               p1.Phase1.steps)
        (Rtr_check.Gen.detectors topo damage))

(* The TTL cuts the walk the moment one more hop would exceed it —
   [hops] never exceeds the limit — while a walk that closes its cycle
   with the TTL exactly spent still completes (closing consumes no
   hop).  Probed via the [?hop_limit] override around the natural
   length of the grid's ring walk. *)
let test_hop_limit_boundary () =
  let topo = grid () in
  let g = Rtr_topo.Topology.graph topo in
  let d = Damage.of_failed g ~nodes:[ 4 ] ~links:[] in
  let free = Phase1.run topo d ~initiator:1 ~trigger:4 () in
  Alcotest.(check bool) "natural walk completes" true
    (free.Phase1.status = Phase1.Completed);
  let h = free.Phase1.hops in
  Alcotest.(check bool) "walk is several hops long" true (h > 2);
  Alcotest.(check bool) "within the default TTL" true
    (h <= (4 * Graph.n_links g) + 4);
  let exact = Phase1.run topo d ~hop_limit:h ~initiator:1 ~trigger:4 () in
  Alcotest.(check bool) "completes with the TTL exactly spent" true
    (exact.Phase1.status = Phase1.Completed);
  Alcotest.(check int) "same hops at the boundary" h exact.Phase1.hops;
  let cut = Phase1.run topo d ~hop_limit:(h - 1) ~initiator:1 ~trigger:4 () in
  Alcotest.(check bool) "one hop short hits the limit" true
    (cut.Phase1.status = Phase1.Hop_limit);
  Alcotest.(check int) "hops never exceed the limit" (h - 1) cut.Phase1.hops

(* A walk whose damage changes under it: the walker starts on the
   paper example under its base damage, takes three hops (v6 v5 v4
   v9), then keeps stepping under a damage with e12,18 failed too.
   v12 has not recorded yet, so the new link joins the collection
   exactly when the walk first steps at v12; what v5 and v4 recorded
   stays, in order, and no link of the initiator ever enters. *)
let test_walker_across_damage_change () =
  let topo = PE.topology () in
  let g = Rtr_topo.Topology.graph topo in
  let base =
    Damage.of_failed g ~nodes:[ PE.v 10 ] ~links:(PE.cut_links ())
  in
  let extra = PE.link 12 18 in
  let later =
    Damage.merge base (Damage.of_failed g ~nodes:[] ~links:[ extra ])
  in
  let chosen = function
    | Phase1.Hop s -> s.Phase1.chosen
    | Phase1.Stop _ -> Alcotest.fail "walk stopped under the base damage"
  in
  let w, first =
    Phase1.start topo base ~initiator:PE.initiator ~trigger:PE.trigger
  in
  let early =
    let h1 = chosen first in
    let h2 = chosen (Phase1.step w base) in
    [ h1; h2; chosen (Phase1.step w base) ]
  in
  Alcotest.(check (list int)) "v5 v4 v9 under the base damage"
    [ PE.v 5; PE.v 4; PE.v 9 ] early;
  let recorded = Phase1.failed_links w in
  Alcotest.(check (list int)) "v5 and v4 recorded"
    [ PE.link 5 10; PE.link 4 11 ]
    recorded;
  let rec walk seen_v12 =
    match Phase1.step w later with
    | Phase1.Hop s ->
        let seen_v12 = seen_v12 || s.Phase1.at = PE.v 12 in
        Alcotest.(check bool) "e12,18 collected iff v12 has recorded" seen_v12
          (List.mem extra (Phase1.failed_links w));
        walk seen_v12
    | Phase1.Stop status -> (status, seen_v12)
  in
  Alcotest.(check bool) "completes through v12" true
    (walk false = (Phase1.Completed, true));
  let final = Phase1.failed_links w in
  Alcotest.(check (list int)) "earlier records stay first" recorded
    (List.filteri (fun i _ -> i < List.length recorded) final);
  Alcotest.(check bool) "no initiator link collected" false
    (List.exists
       (fun id ->
         let a, b = Graph.endpoints g id in
         a = PE.initiator || b = PE.initiator)
       final)

let suite =
  [
    Alcotest.test_case "planar ring walk" `Quick test_planar_ring_walk;
    Alcotest.test_case "hop limit boundary" `Quick test_hop_limit_boundary;
    Alcotest.test_case "no live neighbour" `Quick test_no_live_neighbor;
    Alcotest.test_case "trigger validation" `Quick test_trigger_validation;
    Alcotest.test_case "initiator links not recorded" `Quick
      test_initiator_links_not_recorded;
    Alcotest.test_case "tree branch twice" `Quick test_tree_branch_traversed_twice;
    Alcotest.test_case "header bytes monotone" `Quick test_header_bytes_monotone;
    Alcotest.test_case "duration model" `Quick test_duration_model;
    QCheck_alcotest.to_alcotest theorem1_no_permanent_loops;
    QCheck_alcotest.to_alcotest collection_sound;
    QCheck_alcotest.to_alcotest walk_is_live;
    Alcotest.test_case "walker across a damage change" `Quick
      test_walker_across_damage_change;
  ]
