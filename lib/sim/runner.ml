module Graph = Rtr_graph.Graph
module Path = Rtr_graph.Path
module Header = Rtr_routing.Header
module Phase1 = Rtr_core.Phase1
module Rtr = Rtr_core.Rtr
module Fcp = Rtr_baselines.Fcp
module Mrc = Rtr_baselines.Mrc
module Metrics = Rtr_obs.Metrics

let c_scenarios = Metrics.counter "runner.scenarios"
let c_cases = Metrics.counter "runner.cases"

type result = {
  case : Scenario.case;
  rtr_p1_hops : int;
  rtr_p1_bytes : int list;
  rtr_p1_completed : bool;
  rtr_recovered : bool;
  rtr_cost : int option;
  rtr_stretch : float option;
  rtr_route_bytes : int;
  rtr_wasted_tx : int;
  rtr_calcs : int;
  fcp_delivered : bool;
  fcp_cost : int option;
  fcp_stretch : float option;
  fcp_calcs : int;
  fcp_hop_bytes : int list;
  fcp_wasted_tx : int;
  mrc_delivered : bool;
  mrc_cost : int option;
  mrc_stretch : float option;
}

(* The stretch ratio from its integer cost numerator (an SPT path's
   [Path.cost] equals its distance label).  Every stretch in a [result]
   is this function of the recorded [*_cost] and the case's
   [shortest_after] — which is what lets the stream codec serialise
   only the exact integers and reconstruct identical floats. *)
let stretch_of_dist ~shortest_after dist =
  match shortest_after with
  | None -> None
  | Some best when best > 0 -> Some (float_of_int dist /. float_of_int best)
  | Some _ -> Some 1.0

let stretch_of_cost ~shortest_after = function
  | None -> None
  | Some cost -> stretch_of_dist ~shortest_after cost

(* One case's record: the RTR leg served by the (initiator, trigger)
   session, then the two baselines (FCP from the scenario's session). *)
let run_case g ~mrc ~fcp session damage (case : Scenario.case) =
  let calcs_before = Rtr.sp_calculations session in
  let rtr_recovered, rtr_cost, rtr_route_bytes, rtr_wasted_tx =
    match Rtr.recover session ~dst:case.Scenario.dst with
    | Rtr.Recovered path ->
        (* The stretch numerator comes back through the session's
           per-destination cache (the paper's "one shortest-path
           calculation per destination" bookkeeping): a phase2.cache_hit,
           not a recomputation, and bit-identical to Path.cost. *)
        let dist =
          match Rtr.recovery_distance session ~dst:case.Scenario.dst with
          | Some d -> d
          | None -> assert false (* Recovered implies a cached path *)
        in
        (true, Some dist, Header.rtr_phase2 ~hops:(Path.hops path), 0)
    | Rtr.Unreachable_in_view -> (false, None, 0, 0)
    | Rtr.False_path { path; hops_done; _ } ->
        let bytes = Header.rtr_phase2 ~hops:(Path.hops path) in
        (false, None, bytes, hops_done * (Header.payload_bytes + bytes))
  in
  let rtr_calcs = Rtr.sp_calculations session - calcs_before in
  let p1 = Rtr.phase1 session in
  let fcp =
    Fcp.route fcp ~initiator:case.Scenario.initiator ~dst:case.Scenario.dst
  in
  let fcp_cost =
    if fcp.Fcp.delivered then Some (Path.cost g fcp.Fcp.journey) else None
  in
  let mrc_delivered, mrc_cost =
    match
      Mrc.recover mrc damage ~initiator:case.Scenario.initiator
        ~trigger:case.Scenario.trigger ~dst:case.Scenario.dst
    with
    | Mrc.Delivered path -> (true, Some (Path.cost g path))
    | Mrc.Dropped _ -> (false, None)
  in
  let shortest_after = case.Scenario.shortest_after in
  {
    case;
    rtr_p1_hops = p1.Phase1.hops;
    rtr_p1_bytes = List.map (fun s -> s.Phase1.header_bytes) p1.Phase1.steps;
    rtr_p1_completed =
      (match p1.Phase1.status with
      | Phase1.Completed | Phase1.No_live_neighbor -> true
      | Phase1.Hop_limit | Phase1.Stuck _ -> false);
    rtr_recovered;
    rtr_cost;
    rtr_stretch = stretch_of_cost ~shortest_after rtr_cost;
    rtr_route_bytes;
    rtr_wasted_tx;
    rtr_calcs;
    fcp_delivered = fcp.Fcp.delivered;
    fcp_cost;
    fcp_stretch = stretch_of_cost ~shortest_after fcp_cost;
    fcp_calcs = fcp.Fcp.sp_calculations;
    fcp_hop_bytes = List.map (fun h -> h.Fcp.header_bytes) fcp.Fcp.hops;
    fcp_wasted_tx = Fcp.wasted_transmission fcp;
    mrc_delivered;
    mrc_cost;
    mrc_stretch = stretch_of_cost ~shortest_after mrc_cost;
  }

(* Case indices grouped by key in first-appearance order; each group's
   indices ascending.  Shared with the recovery-map compiler. *)
let group_by_session cases key_of =
  let groups = Hashtbl.create 16 in
  let order = ref [] in
  Array.iteri
    (fun i c ->
      let key = key_of c in
      match Hashtbl.find_opt groups key with
      | Some r -> r := i :: !r
      | None ->
          let r = ref [ i ] in
          Hashtbl.add groups key r;
          order := (key, r) :: !order)
    cases;
  List.rev_map (fun (key, r) -> (key, List.rev !r)) !order

let run_scenario ~mrc (scenario : Scenario.t) =
  Rtr_obs.Trace.with_ "runner.scenario" @@ fun () ->
  Metrics.Counter.incr c_scenarios;
  Metrics.Counter.add c_cases (List.length scenario.Scenario.cases);
  let topo = scenario.Scenario.topo in
  let g = Rtr_topo.Topology.graph topo in
  let damage = scenario.Scenario.damage in
  let cases = Array.of_list scenario.Scenario.cases in
  let results = Array.make (Array.length cases) None in
  let fcp = Fcp.start topo damage in
  (* One RTR session per (initiator, trigger): phase 1's walk starts at
     the trigger, so two different triggers at the same initiator are
     distinct sessions with possibly different collected failures, and
     one session's tree serves all of its group's destinations. *)
  List.iter
    (fun ((initiator, trigger), idxs) ->
      let session = Rtr.start topo damage ~initiator ~trigger () in
      List.iter
        (fun i ->
          results.(i) <- Some (run_case g ~mrc ~fcp session damage cases.(i)))
        idxs)
    (group_by_session cases (fun (c : Scenario.case) ->
         (c.Scenario.initiator, c.Scenario.trigger)));
  Array.to_list results |> List.map Option.get

let rtr_sp_calculations r = r.rtr_calcs
