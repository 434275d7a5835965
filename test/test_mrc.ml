module Graph = Rtr_graph.Graph
module Damage = Rtr_failure.Damage
module Mrc = Rtr_baselines.Mrc
module View = Rtr_graph.View
module Path = Rtr_graph.Path

let ring n =
  Graph.build ~n ~edges:(List.init n (fun i -> (i, (i + 1) mod n)))

let test_every_node_isolated_on_biconnected () =
  let g = ring 8 in
  let mrc = Mrc.build_auto g in
  Alcotest.(check (list int)) "no unprotected nodes" [] (Mrc.unprotected mrc);
  for v = 0 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "node %d isolated somewhere" v)
      true
      (Option.is_some (Mrc.config_of mrc v))
  done

let test_isolated_partition () =
  let g = ring 8 in
  let mrc = Mrc.build_auto g in
  let k = Mrc.n_configs mrc in
  let total =
    List.concat (List.init k (fun c -> Mrc.isolated_in mrc c))
  in
  Alcotest.(check (list int)) "each node exactly once"
    (List.init 8 Fun.id)
    (List.sort compare total)

let test_backbones_connected () =
  let g = Rtr_check.Gen.random_connected_graph ~seed:5 ~n:20 ~extra:25 in
  let mrc = Mrc.build_auto g in
  for c = 0 to Mrc.n_configs mrc - 1 do
    let isolated = Mrc.isolated_in mrc c in
    let comps =
      Rtr_graph.Components.compute (View.of_failed g ~nodes:isolated ~links:[])
    in
    Alcotest.(check int)
      (Printf.sprintf "config %d backbone connected" c)
      1
      (Rtr_graph.Components.count comps)
  done

let test_articulation_point_unprotected () =
  (* A bowtie: node 2 is the articulation point. *)
  let g = Graph.build ~n:5 ~edges:[ (0, 1); (1, 2); (0, 2); (2, 3); (3, 4); (2, 4) ] in
  let mrc = Mrc.build_auto g in
  Alcotest.(check (list int)) "cut vertex cannot be isolated" [ 2 ]
    (Mrc.unprotected mrc)

let test_single_link_failure_recovery () =
  let g = ring 6 in
  let mrc = Mrc.build_auto g in
  (* Fail link 0-1; initiator 0 reroutes to destination 1 the other
     way. *)
  let l01 = Option.get (Graph.find_link g 0 1) in
  let damage = Damage.of_failed g ~nodes:[] ~links:[ l01 ] in
  match Mrc.recover mrc damage ~initiator:0 ~trigger:1 ~dst:1 with
  | Mrc.Delivered p ->
      Alcotest.(check (list int)) "the long way round" [ 0; 5; 4; 3; 2; 1 ]
        (Path.nodes p)
  | Mrc.Dropped _ -> Alcotest.fail "single link failure must recover"

let test_single_node_failure_recovery () =
  let g = ring 6 in
  let mrc = Mrc.build_auto g in
  let damage = Damage.of_failed g ~nodes:[ 1 ] ~links:[] in
  match Mrc.recover mrc damage ~initiator:0 ~trigger:1 ~dst:2 with
  | Mrc.Delivered p ->
      Alcotest.(check int) "reaches around the dead node" 2 (Path.destination p);
      Alcotest.(check bool) "avoids the dead node" false (Path.mem_node p 1)
  | Mrc.Dropped _ -> Alcotest.fail "single node failure must recover"

let test_second_failure_drops () =
  let g = ring 6 in
  let mrc = Mrc.build_auto g in
  (* Both directions broken: the backup configuration's path dies
     too. *)
  let l01 = Option.get (Graph.find_link g 0 1) in
  let l34 = Option.get (Graph.find_link g 3 4) in
  let damage = Damage.of_failed g ~nodes:[] ~links:[ l01; l34 ] in
  match Mrc.recover mrc damage ~initiator:0 ~trigger:1 ~dst:1 with
  | Mrc.Dropped _ -> ()
  | Mrc.Delivered _ -> Alcotest.fail "no second switch in MRC"

let test_build_k_too_small () =
  (* k = 2 on a ring cannot isolate half the nodes at once. *)
  let g = ring 8 in
  match Mrc.build g ~k:2 with
  | None -> ()
  | Some mrc ->
      (* If it does succeed, the partition must still be valid. *)
      Alcotest.(check int) "k" 2 (Mrc.n_configs mrc)

let delivered_paths_are_live =
  QCheck.Test.make ~name:"MRC delivered paths survive the damage" ~count:60
    QCheck.(pair (int_range 6 25) (int_range 0 300))
    (fun (n, salt) ->
      let topo = Rtr_check.Gen.random_topology ~seed:(salt + (n * 67)) ~n in
      let g = Rtr_topo.Topology.graph topo in
      let mrc = Mrc.build_auto g in
      let damage = Rtr_check.Gen.random_damage ~seed:(salt + 3) topo in
      List.for_all
        (fun (initiator, trigger) ->
          List.for_all
            (fun dst ->
              if dst = initiator then true
              else
                match Mrc.recover mrc damage ~initiator ~trigger ~dst with
                | Mrc.Delivered p ->
                    Path.is_valid (Damage.view damage) p
                    && Path.destination p = dst
                | Mrc.Dropped _ -> true)
            (List.init (Graph.n_nodes g) Fun.id))
        (match Rtr_check.Gen.detectors topo damage with [] -> [] | x :: _ -> [ x ]))

let single_failure_always_recovers =
  QCheck.Test.make
    ~name:"MRC recovers any single protected-node failure on biconnected rings"
    ~count:40
    QCheck.(pair (int_range 5 20) (int_range 0 100))
    (fun (n, salt) ->
      let g = ring n in
      let mrc = Mrc.build_auto g in
      let dead = salt mod n in
      let damage = Damage.of_failed g ~nodes:[ dead ] ~links:[] in
      let initiator = (dead + 1) mod n in
      let dst = (dead + n - 1) mod n in
      QCheck.assume (dst <> initiator);
      match Mrc.recover mrc damage ~initiator ~trigger:dead ~dst with
      | Mrc.Delivered _ -> true
      | Mrc.Dropped _ -> false)

let suite =
  [
    Alcotest.test_case "every node isolated" `Quick
      test_every_node_isolated_on_biconnected;
    Alcotest.test_case "isolation is a partition" `Quick test_isolated_partition;
    Alcotest.test_case "backbones connected" `Quick test_backbones_connected;
    Alcotest.test_case "articulation point unprotected" `Quick
      test_articulation_point_unprotected;
    Alcotest.test_case "single link failure" `Quick test_single_link_failure_recovery;
    Alcotest.test_case "single node failure" `Quick test_single_node_failure_recovery;
    Alcotest.test_case "second failure drops" `Quick test_second_failure_drops;
    Alcotest.test_case "small k" `Quick test_build_k_too_small;
    QCheck_alcotest.to_alcotest delivered_paths_are_live;
    QCheck_alcotest.to_alcotest single_failure_always_recovers;
  ]
