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

let hop_limit g = (4 * Graph.n_links g) + 4

(* The packet header while it walks: the paper's rec_init, failed_link
   and cross_link fields, plus the position and hop count that every
   router reads off the packet itself. *)
type walker = {
  topo : Rtr_topo.Topology.t;
  g : Graph.t;
  crossings : Crossings.t;
  constraints : bool;
  hand : Sweep.hand option;
  limit : int;
  initiator : Graph.node;
  failed : Field.t;
  cross : Field.t;
  excluded : Graph.link_id -> bool;
  mutable first_hop : Graph.node;
  mutable at : Graph.node;
  mutable reference : Graph.node;
  mutable hops : int;
}

type move = Hop of step | Stop of status

let failed_links w = Field.to_list w.failed

let header w =
  Header.rtr_phase1 ~n_failed:(Field.size w.failed)
    ~n_cross:(Field.size w.cross)

(* Constraint 2 update: a selected link with a crosser that nothing in
   cross_link excludes yet must itself be excluded from now on; then
   the packet crosses it. *)
let take w next link =
  if w.constraints then begin
    let unexcluded x = not (w.excluded x) in
    if List.exists unexcluded (Crossings.crossing w.crossings link) then
      Field.add w.cross link
  end;
  let s =
    {
      at = w.at;
      reference = w.reference;
      chosen = next;
      via = link;
      header_bytes = header w;
    }
  in
  w.reference <- w.at;
  w.at <- next;
  w.hops <- w.hops + 1;
  Hop s

let init topo damage ~constraints ~hand ~limit ~initiator ~trigger =
  let g = Rtr_topo.Topology.graph topo in
  let crossings = Rtr_topo.Topology.crossings topo in
  let cross = Field.create () in
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
  let w =
    {
      topo;
      g;
      crossings;
      constraints;
      hand;
      limit;
      initiator;
      failed = Field.create ();
      cross;
      excluded;
      first_hop = initiator (* until the sweep picks it *);
      at = initiator;
      reference = trigger;
      hops = 0;
    }
  in
  match
    Sweep.select topo damage ?hand ~at:initiator ~reference:trigger ~excluded
      ()
  with
  | None -> (w, Stop No_live_neighbor)
  | Some (first_hop, link) ->
      w.first_hop <- first_hop;
      (w, take w first_hop link)

let start topo damage ~initiator ~trigger =
  init topo damage ~constraints:true ~hand:None
    ~limit:(hop_limit (Rtr_topo.Topology.graph topo))
    ~initiator ~trigger

let step w damage =
  let u = w.at in
  if u <> w.initiator then
    List.iter
      (fun (v, id) -> if v <> w.initiator then Field.add w.failed id)
      (Damage.unreachable_neighbors damage w.g u);
  match
    Sweep.select w.topo damage ?hand:w.hand ~at:u ~reference:w.reference
      ~excluded:w.excluded ()
  with
  | None -> Stop (Stuck u)
  | Some (next, link) ->
      if u = w.initiator && next = w.first_hop then
        (* Closing the cycle consumes no hop, so completion is still
           possible with the TTL fully spent. *)
        Stop Completed
      else if w.hops >= w.limit then Stop Hop_limit
      else take w next link

let run topo damage ?(constraints = true) ?hand ?hop_limit:limit ~initiator
    ~trigger () =
  let g = Rtr_topo.Topology.graph topo in
  (match Graph.find_link g initiator trigger with
  | Some id when Damage.neighbor_unreachable damage trigger id -> ()
  | Some _ -> invalid_arg "Phase1.run: trigger is reachable"
  | None -> invalid_arg "Phase1.run: trigger not a neighbour");
  if not (Damage.node_ok damage initiator) then
    invalid_arg "Phase1.run: initiator failed";
  let limit = match limit with Some l -> l | None -> hop_limit g in
  let w, first =
    init topo damage ~constraints ~hand ~limit ~initiator ~trigger
  in
  let rec loop steps_rev = function
    | Hop s -> loop (s :: steps_rev) (step w damage)
    | Stop status ->
        let steps = List.rev steps_rev in
        Metrics.Counter.incr c_runs;
        Metrics.Counter.add c_hops w.hops;
        Metrics.Counter.add c_cross (Field.size w.cross);
        Metrics.Histogram.observe h_header_bytes (float_of_int (header w));
        {
          initiator;
          trigger;
          status;
          walk = initiator :: List.map (fun s -> s.chosen) steps;
          hops = w.hops;
          failed_links = failed_links w;
          cross_links = Field.to_list w.cross;
          steps;
        }
  in
  loop [] first

let duration_s (r : result) = Delay.of_hops r.hops
