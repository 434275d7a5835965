module Graph = Rtr_graph.Graph
module Damage = Rtr_failure.Damage
module Path = Rtr_graph.Path
module Source_route = Rtr_routing.Source_route

type leg = {
  initiator : Graph.node;
  phase1 : Phase1.result;
  segment : Path.t option;
}

type result = {
  legs : leg list;
  delivered : bool;
  journey : Path.t option;
  sp_calculations : int;
  phase1_hops : int;
}

(* Nodes of [path] up to and including [stop]. *)
let prefix_until path stop =
  let rec take acc = function
    | [] -> List.rev acc
    | v :: rest -> if v = stop then List.rev (v :: acc) else take (v :: acc) rest
  in
  take [] (Path.nodes path)

let recover topo damage ~initiator ~trigger ~dst ?(max_initiations = 16) () =
  let g = Rtr_topo.Topology.graph topo in
  let rec go current trigger carried travelled legs_rev sp_calcs p1_hops budget
      =
    let phase1 = Phase1.run topo damage ~initiator:current ~trigger () in
    let p1_hops = p1_hops + phase1.Phase1.hops in
    let phase2 =
      Phase2.create topo damage ~initiator:current
        ~removed:(carried @ phase1.Phase1.failed_links)
    in
    match Phase2.recovery_path phase2 ~dst with
    | None ->
        let legs_rev =
          { initiator = current; phase1; segment = None } :: legs_rev
        in
        {
          legs = List.rev legs_rev;
          delivered = false;
          journey = None;
          sp_calculations = sp_calcs + 1;
          phase1_hops = p1_hops;
        }
    | Some path -> (
        let sp_calcs = sp_calcs + 1 in
        match Source_route.follow g damage path with
        | Source_route.Delivered ->
            let legs_rev =
              { initiator = current; phase1; segment = Some path } :: legs_rev
            in
            let journey =
              Path.of_nodes (travelled @ List.tl (Path.nodes path))
            in
            {
              legs = List.rev legs_rev;
              delivered = true;
              journey = Some journey;
              sp_calculations = sp_calcs;
              phase1_hops = p1_hops;
            }
        | Source_route.Dropped { at; hops_done = _ } ->
            let seg_nodes = prefix_until path at in
            let segment = Path.of_nodes seg_nodes in
            let legs_rev =
              { initiator = current; phase1; segment = Some segment }
              :: legs_rev
            in
            if budget <= 1 then
              {
                legs = List.rev legs_rev;
                delivered = false;
                journey = None;
                sp_calculations = sp_calcs;
                phase1_hops = p1_hops;
              }
            else begin
              (* The packet header now carries everything this leg knew
                 plus what its phase 1 collected. *)
              let carried =
                carried
                @ phase1.Phase1.failed_links
                @ List.map snd (Damage.unreachable_neighbors damage g current)
              in
              (* The hop after [at] on the broken source route is the
                 new trigger. *)
              let next_trigger =
                let rec find = function
                  | u :: v :: rest ->
                      if u = at then v else find (v :: rest)
                  | _ -> assert false
                in
                find (Path.nodes path)
              in
              let travelled = travelled @ List.tl seg_nodes in
              go at next_trigger carried travelled legs_rev sp_calcs p1_hops
                (budget - 1)
            end)
  in
  if max_initiations < 1 then invalid_arg "Multi_area.recover: bad budget";
  go initiator trigger [] [ initiator ] [] 0 0 max_initiations
