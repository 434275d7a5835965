module Graph = Rtr_graph.Graph
module Damage = Rtr_failure.Damage
module Crossings = Rtr_topo.Crossings
module Header = Rtr_routing.Header
module Delay = Rtr_routing.Delay

module Metrics = Rtr_obs.Metrics

let c_runs = Metrics.counter "phase1.runs"
let c_hops = Metrics.counter "phase1.hops_walked"
let c_cross = Metrics.counter "phase1.cross_triggers"
let h_header_bytes = Metrics.histogram "phase1.header_bytes"

type status = Completed | No_live_neighbor | Hop_limit | Stuck of Graph.node

type step = {
  at : Graph.node;
  reference : Graph.node;
  chosen : Graph.node;
  via : Graph.link_id;
  header_bytes : int;
}

type result = {
  initiator : Graph.node;
  trigger : Graph.node;
  status : status;
  walk : Graph.node list;
  hops : int;
  failed_links : Graph.link_id list;
  cross_links : Graph.link_id list;
  steps : step list;
}

(* Small ordered set over link ids preserving insertion order: the
   paper's header fields are append-only lists with membership
   checks. *)
module Field = struct
  type t = { mutable rev : int list; seen : (int, unit) Hashtbl.t }

  let create () = { rev = []; seen = Hashtbl.create 16 }
  let mem t id = Hashtbl.mem t.seen id

  let add t id =
    if not (mem t id) then begin
      Hashtbl.replace t.seen id ();
      t.rev <- id :: t.rev
    end

  let to_list t = List.rev t.rev
  let size t = List.length t.rev
  let exists t f = List.exists f t.rev
end

let run topo damage ?(constraints = true) ?hand ?hop_limit ~initiator ~trigger
    () =
  let g = Rtr_topo.Topology.graph topo in
  let crossings = Rtr_topo.Topology.crossings topo in
  (match Graph.find_link g initiator trigger with
  | Some id when Damage.neighbor_unreachable damage trigger id -> ()
  | Some _ -> invalid_arg "Phase1.run: trigger is reachable"
  | None -> invalid_arg "Phase1.run: trigger not a neighbour");
  if not (Damage.node_ok damage initiator) then
    invalid_arg "Phase1.run: initiator failed";
  let failed = Field.create () and cross = Field.create () in
  (* Constraint 1 seed: every initiator link to an unreachable
     neighbour that crosses other links enters cross_link. *)
  if constraints then
    List.iter
      (fun (_, id) ->
        if Crossings.has_crossing crossings id then Field.add cross id)
      (Damage.unreachable_neighbors damage g initiator);
  let excluded id =
    constraints
    && Field.exists cross (fun c -> Crossings.crosses crossings id c)
  in
  let record_failures u =
    if u <> initiator then
      List.iter
        (fun (v, id) -> if v <> initiator then Field.add failed id)
        (Damage.unreachable_neighbors damage g u)
  in
  (* Constraint 2 update: a selected link with a crosser that nothing
     in cross_link excludes yet must itself be excluded from now on. *)
  let update_cross chosen_link =
    if constraints then begin
      let unexcluded x =
        not (Field.exists cross (fun c -> Crossings.crosses crossings x c))
      in
      if List.exists unexcluded (Crossings.crossing crossings chosen_link) then
        Field.add cross chosen_link
    end
  in
  let header () =
    Header.rtr_phase1 ~n_failed:(Field.size failed) ~n_cross:(Field.size cross)
  in
  let finish status walk_rev steps_rev =
    let hops = List.length steps_rev in
    Metrics.Counter.incr c_runs;
    Metrics.Counter.add c_hops hops;
    Metrics.Counter.add c_cross (Field.size cross);
    Metrics.Histogram.observe h_header_bytes (float_of_int (header ()));
    {
      initiator;
      trigger;
      status;
      walk = List.rev walk_rev;
      hops;
      failed_links = Field.to_list failed;
      cross_links = Field.to_list cross;
      steps = List.rev steps_rev;
    }
  in
  match Sweep.select topo damage ?hand ~at:initiator ~reference:trigger ~excluded () with
  | None -> finish No_live_neighbor [ initiator ] []
  | Some (first_hop, first_link) ->
      update_cross first_link;
      let first_step =
        {
          at = initiator;
          reference = trigger;
          chosen = first_hop;
          via = first_link;
          header_bytes = header ();
        }
      in
      let hop_limit =
        match hop_limit with
        | Some l -> l
        | None -> (4 * Graph.n_links g) + 4
      in
      let rec loop u reference walk_rev steps_rev hops =
        (* [u] just received the packet from [reference]; [hops] steps
           have been taken so far. *)
        record_failures u;
        match Sweep.select topo damage ?hand ~at:u ~reference ~excluded () with
        | None -> finish (Stuck u) walk_rev steps_rev
        | Some (next, link) ->
            if u = initiator && next = first_hop then
              (* Closing the cycle consumes no hop, so completion is
                 still possible with the TTL fully spent. *)
              finish Completed walk_rev steps_rev
            else if hops >= hop_limit then finish Hop_limit walk_rev steps_rev
            else begin
              update_cross link;
              let step =
                {
                  at = u;
                  reference;
                  chosen = next;
                  via = link;
                  header_bytes = header ();
                }
              in
              loop next u (next :: walk_rev) (step :: steps_rev) (hops + 1)
            end
      in
      loop first_hop initiator [ first_hop; initiator ] [ first_step ] 1

let duration_s r = Delay.of_hops r.hops
