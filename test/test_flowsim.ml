module Graph = Rtr_graph.Graph
module Damage = Rtr_failure.Damage
module Flowsim = Rtr_des.Flowsim
module Randroute = Rtr_baselines.Randroute
module Route_table = Rtr_routing.Route_table
module View = Rtr_graph.View

let paper_topo () = Rtr_topo.Paper_example.topology ()

let paper_damage g =
  Damage.of_failed g
    ~nodes:[ Rtr_topo.Paper_example.failed_router ]
    ~links:(Rtr_topo.Paper_example.cut_links ())

let quick_config scheme =
  { Flowsim.default_config with scheme; t_fail = 0.5; t_end = 4.0 }

(* --- randroute ------------------------------------------------------- *)

let test_randroute_deterministic () =
  let topo = paper_topo () in
  let g = Rtr_topo.Topology.graph topo in
  let damage = paper_damage g in
  let table = Route_table.compute (Damage.view damage) in
  let a = Randroute.create ~seed:42 g in
  let b = Randroute.create ~seed:42 g in
  let initiator = Rtr_topo.Paper_example.v 6 and dst = Rtr_topo.Paper_example.v 17 in
  for flow = 0 to 49 do
    let ra = Randroute.reroute a table ~flow ~initiator ~dst in
    let rb = Randroute.reroute b table ~flow ~initiator ~dst in
    match (ra, rb) with
    | Randroute.Rerouted x, Randroute.Rerouted y ->
        Alcotest.(check int) "same via" x.via y.via;
        Alcotest.(check (list int)) "same nodes" x.nodes y.nodes;
        Alcotest.(check int) "same cost" x.cost y.cost
    | Randroute.No_route, Randroute.No_route -> ()
    | _ -> Alcotest.fail "outcomes diverge between equal-seed instances"
  done

let test_randroute_routes_valid_and_spread () =
  let topo = paper_topo () in
  let g = Rtr_topo.Topology.graph topo in
  let damage = paper_damage g in
  let table = Route_table.compute (Damage.view damage) in
  let rr = Randroute.create ~seed:7 g in
  let initiator = Rtr_topo.Paper_example.v 6 and dst = Rtr_topo.Paper_example.v 17 in
  let vias = Hashtbl.create 8 in
  for flow = 0 to 199 do
    match Randroute.reroute rr table ~flow ~initiator ~dst with
    | Randroute.No_route -> Alcotest.fail "dst is reachable, expected a route"
    | Randroute.Rerouted { via; nodes; cost } ->
        Hashtbl.replace vias via ();
        (match nodes with
        | first :: _ -> Alcotest.(check int) "starts at initiator" initiator first
        | [] -> Alcotest.fail "empty route");
        Alcotest.(check int) "ends at dst" dst (List.nth nodes (List.length nodes - 1));
        (* consecutive nodes adjacent, and the walked cost matches *)
        let rec walk acc = function
          | a :: (b :: _ as rest) -> (
              match Graph.find_link g a b with
              | Some l ->
                  Alcotest.(check bool) "link survives" true (Damage.link_ok damage l);
                  walk (acc + Graph.cost g l ~src:a) rest
              | None -> Alcotest.fail "non-adjacent consecutive nodes")
          | _ -> acc
        in
        Alcotest.(check int) "cost is the walked cost" cost (walk 0 nodes)
  done;
  Alcotest.(check bool) "randomization spreads across intermediates" true
    (Hashtbl.length vias >= 2)

(* --- flowsim --------------------------------------------------------- *)

let stats_equal (a : Flowsim.stats) (b : Flowsim.stats) =
  Alcotest.(check int) "flows" a.flows b.flows;
  Alcotest.(check int) "offered" a.offered_ratems b.offered_ratems;
  Alcotest.(check int) "delivered" a.delivered_ratems b.delivered_ratems;
  Alcotest.(check int) "blackholed" a.blackholed_ratems b.blackholed_ratems;
  Alcotest.(check int) "dropped_recovery" a.dropped_recovery_ratems
    b.dropped_recovery_ratems;
  Alcotest.(check int) "dropped_no_route" a.dropped_no_route_ratems
    b.dropped_no_route_ratems;
  Alcotest.(check int) "broken" a.broken b.broken;
  Alcotest.(check int) "recovered" a.recovered b.recovered;
  Alcotest.(check (float 0.0)) "stretch_agg" a.stretch_agg b.stretch_agg;
  Alcotest.(check (float 0.0)) "stretch_max" a.stretch_max b.stretch_max;
  Alcotest.(check int) "base_max_load" a.base_max_load b.base_max_load;
  Alcotest.(check int) "rec_max_load" a.rec_max_load b.rec_max_load;
  Alcotest.(check int) "post_max_load" a.post_max_load b.post_max_load;
  Alcotest.(check int) "overloaded" a.overloaded_links b.overloaded_links;
  Alcotest.(check (array int)) "link loads" a.rec_link_loads b.rec_link_loads

let test_no_damage_full_delivery () =
  let topo = paper_topo () in
  let g = Rtr_topo.Topology.graph topo in
  let flows = Flowsim.demand topo ~n:500 ~seed:3 in
  let stats = Flowsim.run topo (Damage.none g) (quick_config Flowsim.Rtr_scheme) flows in
  Alcotest.(check int) "all evaluated" 500 stats.Flowsim.flows;
  Alcotest.(check (float 1e-9)) "everything delivered" 1.0 stats.Flowsim.delivered_frac;
  Alcotest.(check int) "nothing broken" 0 stats.Flowsim.broken;
  Alcotest.(check bool) "base load positive" true (stats.Flowsim.base_max_load > 0)

let test_rtr_beats_no_recovery () =
  let topo = paper_topo () in
  let g = Rtr_topo.Topology.graph topo in
  let damage = paper_damage g in
  let flows = Flowsim.demand topo ~n:2000 ~seed:5 in
  let off = Flowsim.run topo damage (quick_config Flowsim.No_recovery) flows in
  let on = Flowsim.run topo damage (quick_config Flowsim.Rtr_scheme) flows in
  Alcotest.(check bool) "damage breaks flows" true (off.Flowsim.broken > 0);
  Alcotest.(check int) "no recovery recovers nothing" 0 off.Flowsim.recovered;
  Alcotest.(check bool) "rtr recovers flows" true (on.Flowsim.recovered > 0);
  Alcotest.(check bool) "rtr delivers more" true
    (on.Flowsim.delivered_ratems > off.Flowsim.delivered_ratems);
  Alcotest.(check bool) "stretch at least 1" true (on.Flowsim.stretch_agg >= 1.0);
  Alcotest.(check bool) "stretch_max bounds stretch_agg" true
    (on.Flowsim.stretch_max >= on.Flowsim.stretch_agg)

let test_all_schemes_run () =
  let topo = paper_topo () in
  let g = Rtr_topo.Topology.graph topo in
  let damage = paper_damage g in
  let flows = Flowsim.demand topo ~n:400 ~seed:11 in
  let none =
    Flowsim.run topo damage (quick_config Flowsim.No_recovery) flows
  in
  List.iter
    (fun scheme ->
      let s = Flowsim.run topo damage (quick_config scheme) flows in
      Alcotest.(check bool)
        (Flowsim.scheme_name scheme ^ " no worse than none")
        true
        (s.Flowsim.delivered_ratems >= none.Flowsim.delivered_ratems);
      Alcotest.(check bool)
        (Flowsim.scheme_name scheme ^ " delivered <= offered")
        true
        (s.Flowsim.delivered_ratems <= s.Flowsim.offered_ratems))
    [ Flowsim.Rtr_scheme; Flowsim.Fcp_scheme; Flowsim.Mrc_scheme;
      Flowsim.Randroute_scheme ]

let all_schemes =
  [
    Flowsim.No_recovery;
    Flowsim.Rtr_scheme;
    Flowsim.Fcp_scheme;
    Flowsim.Mrc_scheme;
    Flowsim.Randroute_scheme;
  ]

(* The schemes whose outcomes a context resolves once per flow array. *)
let resolving_schemes =
  [ Flowsim.Rtr_scheme; Flowsim.Fcp_scheme; Flowsim.Mrc_scheme ]

let merge_all = function
  | first :: rest -> List.fold_left Flowsim.merge first rest
  | [] -> assert false

let whole_stats topo damage config flows =
  let ctx = Flowsim.context topo damage config in
  Flowsim.finish ctx
    (Flowsim.eval_slice ctx flows ~lo:0 ~hi:(Array.length flows))

(* Sharding must be invisible: one slice vs. many slices merged in
   order must agree exactly, including the per-link load arrays, for
   every scheme and whichever slice is evaluated first (the one that
   resolves the context's outcomes).  This is the property the CI
   jobs-invariance gate checks end to end. *)
let test_shard_invariance () =
  let topo = paper_topo () in
  let g = Rtr_topo.Topology.graph topo in
  let damage = paper_damage g in
  let flows = Flowsim.demand topo ~n:600 ~seed:13 in
  let bounds = [| (0, 7); (7, 100); (100, 101); (101, 350); (350, 600) |] in
  List.iter
    (fun scheme ->
      let config = quick_config scheme in
      let whole = whole_stats topo damage config flows in
      let ctx = Flowsim.context topo damage config in
      let accs = Array.make (Array.length bounds) None in
      List.iter
        (fun i ->
          let lo, hi = bounds.(i) in
          accs.(i) <- Some (Flowsim.eval_slice ctx flows ~lo ~hi))
        [ 3; 0; 4; 2; 1 ];
      let merged = merge_all (List.map Option.get (Array.to_list accs)) in
      stats_equal whole (Flowsim.finish ctx merged))
    all_schemes

(* A context that moves on to a second flow array replaces its
   resolved outcomes: the second array's stats, and the first's again
   after it, equal fresh contexts'. *)
let test_second_flow_array () =
  let topo = paper_topo () in
  let g = Rtr_topo.Topology.graph topo in
  let damage = paper_damage g in
  let first = Flowsim.demand topo ~n:400 ~seed:13 in
  let second = Flowsim.demand topo ~n:500 ~seed:31 in
  List.iter
    (fun scheme ->
      let config = quick_config scheme in
      let ctx = Flowsim.context topo damage config in
      let eval flows =
        Flowsim.finish ctx
          (Flowsim.eval_slice ctx flows ~lo:0 ~hi:(Array.length flows))
      in
      let fresh_first = whole_stats topo damage config first in
      stats_equal fresh_first (eval first);
      stats_equal (whole_stats topo damage config second) (eval second);
      stats_equal fresh_first (eval first))
    resolving_schemes

let work_counters = [ "fcp.recomputations"; "fcp.trees_built"; "pqueue.pop" ]

(* How much [f] moves each of [work_counters] on the calling domain. *)
let counter_deltas f =
  let read () =
    List.map (fun n -> Rtr_obs.Metrics.(Counter.value (counter n))) work_counters
  in
  let before = read () in
  f ();
  List.map2 (fun a b -> a - b) (read ()) before

(* Outcomes are resolved once per (context, flow array): four slices of
   an array cost the same recovery work as one whole-array slice. *)
let test_resolve_once () =
  let topo = paper_topo () in
  let g = Rtr_topo.Topology.graph topo in
  let damage = paper_damage g in
  let flows = Flowsim.demand topo ~n:800 ~seed:19 in
  let n = Array.length flows in
  List.iter
    (fun scheme ->
      let config = quick_config scheme in
      let whole_ctx = Flowsim.context topo damage config in
      let sliced_ctx = Flowsim.context topo damage config in
      let whole =
        counter_deltas (fun () ->
            ignore (Flowsim.eval_slice whole_ctx flows ~lo:0 ~hi:n))
      in
      let sliced =
        counter_deltas (fun () ->
            for i = 0 to 3 do
              ignore
                (Flowsim.eval_slice sliced_ctx flows ~lo:(i * n / 4)
                   ~hi:((i + 1) * n / 4))
            done)
      in
      let name = Flowsim.scheme_name scheme in
      Alcotest.(check (list int)) (name ^ ": same work") whole sliced;
      Alcotest.(check bool) (name ^ ": recovery ran Dijkstras") true
        (List.nth whole 2 > 0);
      if scheme = Flowsim.Fcp_scheme then
        Alcotest.(check bool) "fcp recomputed" true (List.hd whole > 0))
    [ Flowsim.Rtr_scheme; Flowsim.Fcp_scheme ]

(* The counters of a snapshot (one entry per registered counter).  The
   workspace alloc/reuse split depends on which domains ran Dijkstras,
   so only their sum is compared. *)
let counters_of snap =
  match
    Option.bind
      (Rtr_obs.Json.member "counters" (Rtr_obs.Metrics.Snapshot.to_json snap))
      (function Rtr_obs.Json.Obj kvs -> Some kvs | _ -> None)
  with
  | None -> Alcotest.fail "snapshot without counters"
  | Some kvs ->
      let ws = ref 0 in
      let rest =
        List.filter_map
          (fun (name, v) ->
            match v with
            | Rtr_obs.Json.Int n
              when String.starts_with ~prefix:"spt.ws_" name ->
                ws := !ws + n;
                None
            | Rtr_obs.Json.Int n -> Some (name, n)
            | _ -> None)
          kvs
      in
      ("spt.ws_*", !ws) :: rest

(* Two domains evaluating alternating slices of each context (racing
   for the resolve) merge to the stats and the work counters of the
   same slices evaluated on this domain alone. *)
let test_two_domains () =
  let topo = paper_topo () in
  let g = Rtr_topo.Topology.graph topo in
  let damage = paper_damage g in
  let flows = Flowsim.demand topo ~n:800 ~seed:23 in
  let n = Array.length flows in
  let chunks = 8 in
  let bounds = Array.init chunks (fun i -> (i * n / chunks, (i + 1) * n / chunks)) in
  let contexts () =
    List.map (fun s -> Flowsim.context topo damage (quick_config s)) all_schemes
  in
  (* Evaluates the slices [i] with [i mod stride = first] of every
     context; returns them with their index, and the domain's counters
     moved. *)
  let eval_part ctxs ~first ~stride =
    let before = Rtr_obs.Metrics.snapshot () in
    let accs =
      List.map
        (fun ctx ->
          List.filter_map
            (fun i ->
              if i mod stride <> first then None
              else
                let lo, hi = bounds.(i) in
                Some (i, Flowsim.eval_slice ctx flows ~lo ~hi))
            (List.init chunks Fun.id))
        ctxs
    in
    let after = Rtr_obs.Metrics.snapshot () in
    let moved =
      let b = counters_of before in
      List.map
        (fun (name, v) ->
          (name, v - Option.value (List.assoc_opt name b) ~default:0))
        (counters_of after)
    in
    (accs, moved)
  in
  let finish ctxs parts =
    List.mapi
      (fun k ctx ->
        let slices =
          List.concat_map (fun part -> List.nth part k) parts
          |> List.sort (fun (i, _) (j, _) -> compare i j)
          |> List.map snd
        in
        Flowsim.finish ctx (merge_all slices))
      ctxs
  in
  let seq_ctxs = contexts () in
  let seq_accs, seq_moved = eval_part seq_ctxs ~first:0 ~stride:1 in
  let seq = finish seq_ctxs [ seq_accs ] in
  let par_ctxs = contexts () in
  let domains =
    List.map
      (fun first -> Domain.spawn (fun () -> eval_part par_ctxs ~first ~stride:2))
      [ 0; 1 ]
  in
  let results = List.map Domain.join domains in
  let par = finish par_ctxs (List.map fst results) in
  List.iter2 stats_equal seq par;
  let par_moved =
    List.fold_left
      (fun acc (_, moved) ->
        List.map
          (fun (name, v) ->
            (name, v + Option.value (List.assoc_opt name moved) ~default:0))
          acc)
      (List.map (fun (name, _) -> (name, 0)) seq_moved)
      results
  in
  Alcotest.(check (list (pair string int))) "work counters" seq_moved par_moved;
  Alcotest.(check bool) "some recovery work counted" true
    (List.assoc "fcp.recomputations" seq_moved > 0)

let test_demand_deterministic () =
  let topo = paper_topo () in
  let a = Flowsim.demand topo ~n:300 ~seed:21 in
  let b = Flowsim.demand topo ~n:300 ~seed:21 in
  Alcotest.(check bool) "same demand" true (a = b);
  let c = Flowsim.demand topo ~n:300 ~seed:22 in
  Alcotest.(check bool) "seed changes demand" true (a <> c);
  Array.iter
    (fun f ->
      Alcotest.(check bool) "src <> dst" true (f.Flowsim.src <> f.Flowsim.dst);
      Alcotest.(check bool) "rate in 1..9" true (f.Flowsim.rate >= 1 && f.Flowsim.rate <= 9))
    a

let test_congestion_visible () =
  let topo = paper_topo () in
  let g = Rtr_topo.Topology.graph topo in
  let damage = paper_damage g in
  let flows = Flowsim.demand topo ~n:2000 ~seed:29 in
  let s = Flowsim.run topo damage (quick_config Flowsim.Rtr_scheme) flows in
  Alcotest.(check bool) "recovery max load positive" true (s.Flowsim.rec_max_load > 0);
  Alcotest.(check int) "per-link array has the max" s.Flowsim.rec_max_load
    (Array.fold_left max 0 s.Flowsim.rec_link_loads);
  (* the load CDF plumbing the report uses *)
  let cdf =
    Rtr_sim.Cdf.of_ints (Array.to_list s.Flowsim.rec_link_loads)
  in
  Alcotest.(check (float 1e-9)) "cdf max agrees"
    (float_of_int s.Flowsim.rec_max_load)
    (Rtr_sim.Cdf.maximum cdf)

let suite =
  [
    Alcotest.test_case "randroute deterministic" `Quick test_randroute_deterministic;
    Alcotest.test_case "randroute routes valid and spread" `Quick
      test_randroute_routes_valid_and_spread;
    Alcotest.test_case "no damage full delivery" `Quick test_no_damage_full_delivery;
    Alcotest.test_case "rtr beats no recovery" `Quick test_rtr_beats_no_recovery;
    Alcotest.test_case "all schemes run" `Quick test_all_schemes_run;
    Alcotest.test_case "shard invariance" `Quick test_shard_invariance;
    Alcotest.test_case "second flow array" `Quick test_second_flow_array;
    Alcotest.test_case "resolve once per array" `Quick test_resolve_once;
    Alcotest.test_case "two domains" `Quick test_two_domains;
    Alcotest.test_case "demand deterministic" `Quick test_demand_deterministic;
    Alcotest.test_case "congestion visible" `Quick test_congestion_visible;
  ]
