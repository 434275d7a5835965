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
      Alcotest.(check bool) "avoids the dead node" false (List.mem 1 (Path.nodes p))
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

(* What the original scheme's prohibitive restricted-link weight
   guarantees, checked on the masked configurations: in every
   configuration c the tables never use a node isolated in c as an
   interior hop, and between two backbone nodes they route at the cost
   of a shortest path over the backbone alone. *)
let check_configurations label g =
  let mrc = Mrc.build_auto g in
  let n = Graph.n_nodes g in
  for c = 0 to Mrc.n_configs mrc - 1 do
    let isolated = Mrc.isolated_in mrc c in
    let is_iso = Array.make n false in
    List.iter (fun v -> is_iso.(v) <- true) isolated;
    let backbone = View.of_failed g ~nodes:isolated ~links:[] in
    for dst = 0 to n - 1 do
      let best =
        Rtr_check.Reference.spt backbone ~root:dst
          ~direction:Rtr_graph.Spt.To_root
      in
      for src = 0 to n - 1 do
        if src <> dst then begin
          let rec walk u acc hops =
            if u = dst then Path.of_nodes (List.rev acc)
            else if hops > n then
              Alcotest.failf "%s config %d: v%d -> v%d loops" label c src dst
            else
              match Mrc.next_hop mrc ~config:c ~src:u ~dst with
              | None ->
                  Alcotest.failf "%s config %d: v%d -> v%d stops at v%d" label
                    c src dst u
              | Some v ->
                  if v <> dst && is_iso.(v) then
                    Alcotest.failf
                      "%s config %d: v%d -> v%d transits isolated v%d" label c
                      src dst v;
                  walk v (v :: acc) (hops + 1)
          in
          let path = walk src [ src ] 0 in
          if (not is_iso.(src)) && not is_iso.(dst) then
            Alcotest.(check int)
              (Printf.sprintf "%s config %d: v%d -> v%d cost" label c src dst)
              (Rtr_graph.Spt.dist best src) (Path.cost g path)
        end
      done
    done
  done

let test_configurations_asymmetric () =
  List.iter
    (fun seed ->
      let g =
        Rtr_check.Gen.random_weighted_graph ~seed ~n:(16 + seed) ~extra:20
          ~max_cost:9
      in
      check_configurations (Printf.sprintf "seed %d" seed) g)
    [ 1; 2; 3; 4; 5 ]

let test_configurations_table2 () =
  List.iter
    (fun (preset : Rtr_topo.Isp.preset) ->
      check_configurations preset.Rtr_topo.Isp.as_name
        (Rtr_topo.Topology.graph (Rtr_topo.Isp.load preset)))
    Rtr_topo.Isp.table2

(* [configs_needed] reads k from the isolation assignment alone; it
   must agree with the k the harness's full construction ends up
   with, and with the first k from the start whose [build] succeeds. *)
let test_configs_needed () =
  let mrc_ks = None :: List.init 7 (fun i -> Some (i + 2)) in
  let agree label g mrc_k =
    let label =
      Printf.sprintf "%s, mrc_k %s" label
        (match mrc_k with None -> "auto" | Some k -> string_of_int k)
    in
    let rec first_built k =
      match Mrc.build g ~k with
      | Some t -> Mrc.n_configs t
      | None -> first_built (k + 1)
    in
    let needed = Mrc.configs_needed ?k_start:mrc_k g in
    Alcotest.(check int) label
      (Mrc.n_configs (Rtr_sim.Pipeline.mrc_for ~mrc_k g))
      needed;
    Alcotest.(check int) (label ^ ", first k that builds")
      (first_built (Option.value mrc_k ~default:4))
      needed
  in
  List.iter
    (fun (preset : Rtr_topo.Isp.preset) ->
      let g = Rtr_topo.Topology.graph (Rtr_topo.Isp.load preset) in
      List.iter (agree preset.Rtr_topo.Isp.as_name g) mrc_ks)
    Rtr_topo.Isp.table2;
  let rng = Rtr_util.Rng.make 23 in
  for i = 0 to 199 do
    let n = 4 + Rtr_util.Rng.int rng 37 in
    let m = min (n * (n - 1) / 2) (n - 1 + Rtr_util.Rng.int rng (n + 2)) in
    let topo = Rtr_topo.Generator.generate rng ~name:"g" ~n ~m () in
    agree
      (Printf.sprintf "random graph %d (n %d, m %d)" i n m)
      (Rtr_topo.Topology.graph topo)
      (List.nth mrc_ks (i mod List.length mrc_ks))
  done;
  let g = ring 8 in
  let raised f =
    match f () with
    | _ -> "no exception"
    | exception Invalid_argument msg -> msg
  in
  Alcotest.(check string) "k_start 1 raises as build ~k:1"
    (raised (fun () -> ignore (Mrc.build g ~k:1)))
    (raised (fun () -> ignore (Mrc.configs_needed ~k_start:1 g)))

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
    Alcotest.test_case "configurations, asymmetric costs" `Quick
      test_configurations_asymmetric;
    Alcotest.test_case "configurations, Table II" `Quick
      test_configurations_table2;
    Alcotest.test_case "configs_needed = built k" `Quick test_configs_needed;
    QCheck_alcotest.to_alcotest delivered_paths_are_live;
    QCheck_alcotest.to_alcotest single_failure_always_recovers;
  ]
