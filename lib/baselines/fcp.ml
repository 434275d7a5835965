module Graph = Rtr_graph.Graph
module View = Rtr_graph.View
module Damage = Rtr_failure.Damage
module Path = Rtr_graph.Path
module Dijkstra = Rtr_graph.Dijkstra
module Spt = Rtr_graph.Spt
module Header = Rtr_routing.Header

let c_recomputations = Rtr_obs.Metrics.counter "fcp.recomputations"
let c_trees_built = Rtr_obs.Metrics.counter "fcp.trees_built"
let c_trees_reused = Rtr_obs.Metrics.counter "fcp.trees_reused"

type hop_record = { from_ : Graph.node; to_ : Graph.node; header_bytes : int }

type result = {
  delivered : bool;
  journey : Path.t;
  sp_calculations : int;
  carried_links : Graph.link_id list;
  hops : hop_record list;
  discarded_at : Graph.node option;
}

(* Shortest-path trees are shared across the routes of one session.
   A router recomputing with carried set C' needs its tree over the
   pre-failure map minus C', but only that tree's path to one
   destination.  Any tree T(C) the router already holds with C ⊆ C'
   gives the same path whenever that path crosses no link of C' (or
   reaches nothing): dropping off-path links leaves every path node's
   distance unchanged and can only remove equal-cost parent
   candidates, so each path node keeps its smallest-id parent, the
   canonical tree of [Dijkstra.spt]; unreachability is monotone under
   link removal.  Each router's trees are owned copies, newest first. *)
type session = {
  g : Graph.t;
  damage : Damage.t;
  full : View.t;
  trees : (Graph.link_id list * Spt.t) list array;
  mutable carried_mask : Bytes.t;
      (* one byte per link, set only while a recomputation scans the
         held trees; allocated on the first scan *)
}

let start topo damage =
  let g = Rtr_topo.Topology.graph topo in
  {
    g;
    damage;
    full = View.full g;
    trees = Array.make (Graph.n_nodes g) [];
    carried_mask = Bytes.empty;
  }

(* Whether the held tree [(c, t)] answers [dst] when [carried] is the
   carried set: its path to [dst] avoids every carried link (or does
   not exist), and it was computed without links outside [carried]. *)
let answers carried dst (c, (t : Spt.t)) =
  let rec clear v =
    let id = t.Spt.parent_link.(v) in
    id = -1 || ((not (carried id)) && clear t.Spt.parent_node.(v))
  in
  clear dst && List.for_all carried c

let held_answer s ~root carried dst =
  match s.trees.(root) with
  | [] -> None
  | held ->
      if Bytes.length s.carried_mask = 0 then
        s.carried_mask <- Bytes.make (Graph.n_links s.g) '\000';
      let mask = s.carried_mask in
      List.iter (fun id -> Bytes.set mask id '\001') carried;
      let found =
        List.find_opt (answers (fun id -> Bytes.get mask id <> '\000') dst) held
      in
      List.iter (fun id -> Bytes.set mask id '\000') carried;
      found

(* [built] counts the recomputations no held tree answered. *)
let tree_path s ~built ~root carried dst =
  match held_answer s ~root carried dst with
  | Some (_, t) -> Spt.path t dst
  | None ->
      incr built;
      let view = View.remove_links s.full carried in
      let t =
        Spt.copy
          (Dijkstra.spt ~workspace:(Dijkstra.Workspace.get ()) view ~root ())
      in
      s.trees.(root) <- (carried, t) :: s.trees.(root);
      Spt.path t dst

let route s ~initiator ~dst =
  if initiator = dst then invalid_arg "Fcp.route: initiator equals destination";
  if not (Damage.node_ok s.damage initiator) then
    invalid_arg "Fcp.route: initiator failed";
  let g = s.g and damage = s.damage in
  let carried_rev = ref [] in
  let carry id =
    if not (List.mem id !carried_rev) then carried_rev := id :: !carried_rev
  in
  let journey_rev = ref [ initiator ] in
  let hops_rev = ref [] in
  let sp_calcs = ref 0 and built = ref 0 in
  let finish ~delivered ~discarded_at =
    Rtr_obs.Metrics.Counter.add c_recomputations !sp_calcs;
    Rtr_obs.Metrics.Counter.add c_trees_built !built;
    Rtr_obs.Metrics.Counter.add c_trees_reused (!sp_calcs - !built);
    {
      delivered;
      journey = Path.of_nodes (List.rev !journey_rev);
      sp_calculations = !sp_calcs;
      carried_links = List.rev !carried_rev;
      hops = List.rev !hops_rev;
      discarded_at;
    }
  in
  (* One recomputation round at [current]: the router's view is the
     pre-failure map minus carried failures minus what it can see on
     its own links.  It counts as a calculation whether or not the
     session already holds a tree that answers it.  Every round after
     the first records a failure the header lacked, so more than
     1 + |E| rounds means a path crossed a carried link: fail loudly
     instead of looping while the journey grows. *)
  let rec round current =
    if !sp_calcs > Graph.n_links g then
      failwith
        (Printf.sprintf
           "Fcp.route v%d -> v%d: more than %d recomputations" initiator dst
           (Graph.n_links g + 1));
    (* The recomputing router contributes everything it can see to the
       header: FCP packets carry the failure knowledge of the nodes
       they visit. *)
    Graph.iter_neighbors g current (fun v id ->
        if Damage.neighbor_unreachable damage v id then carry id);
    incr sp_calcs;
    match tree_path s ~built ~root:current !carried_rev dst with
    | None -> finish ~delivered:false ~discarded_at:(Some current)
    | Some path -> follow path
  and follow path =
    let total = Path.hops path in
    let n_failed = List.length !carried_rev in
    let rec walk idx = function
      | u :: v :: rest -> (
          match Graph.find_link g u v with
          | None -> assert false
          | Some id ->
              if Damage.neighbor_unreachable damage v id then
                (* A failure not in the header: recompute from here
                   (the failed link joins the header in [round]). *)
                round u
              else begin
                let header_bytes =
                  Header.fcp ~n_failed ~route_hops:(total - idx)
                in
                hops_rev := { from_ = u; to_ = v; header_bytes } :: !hops_rev;
                journey_rev := v :: !journey_rev;
                if v = dst then finish ~delivered:true ~discarded_at:None
                else walk (idx + 1) (v :: rest)
              end)
      | [ _ ] | [] -> finish ~delivered:true ~discarded_at:None
    in
    walk 0 (Path.nodes path)
  in
  round initiator

let run topo damage ~initiator ~dst = route (start topo damage) ~initiator ~dst

let wasted_transmission r =
  List.fold_left
    (fun acc h -> acc + Header.payload_bytes + h.header_bytes)
    0 r.hops
