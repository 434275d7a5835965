module Graph = Rtr_graph.Graph
module View = Rtr_graph.View
module Damage = Rtr_failure.Damage
module Path = Rtr_graph.Path
module Dijkstra = Rtr_graph.Dijkstra
module Spt = Rtr_graph.Spt
module Header = Rtr_routing.Header

type hop_record = { from_ : Graph.node; to_ : Graph.node; header_bytes : int }

type result = {
  delivered : bool;
  journey : Path.t;
  sp_calculations : int;
  carried_links : Graph.link_id list;
  hops : hop_record list;
  discarded_at : Graph.node option;
}

(* Shortest-path trees are shared across the routes of one session:
   a recomputing router's view is the pre-failure map minus the
   carried links, so its tree depends only on (router, carried-link
   set).  Each distinct key is computed once and kept as an owned
   copy. *)
type session = {
  g : Graph.t;
  damage : Damage.t;
  full : View.t;
  trees : (Graph.node * Graph.link_id list, Spt.t) Hashtbl.t;
}

let start topo damage =
  let g = Rtr_topo.Topology.graph topo in
  { g; damage; full = View.full g; trees = Hashtbl.create 16 }

let tree s ~root carried =
  let key = (root, List.sort Int.compare carried) in
  match Hashtbl.find_opt s.trees key with
  | Some spt -> spt
  | None ->
      let view = View.remove_links s.full carried in
      let spt =
        Spt.copy
          (Dijkstra.spt ~workspace:(Dijkstra.Workspace.get ()) view ~root ())
      in
      Hashtbl.add s.trees key spt;
      spt

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
  let sp_calcs = ref 0 in
  let finish ~delivered ~discarded_at =
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
     session already holds its tree. *)
  let rec round current =
    (* The recomputing router contributes everything it can see to the
       header: FCP packets carry the failure knowledge of the nodes
       they visit. *)
    Graph.iter_neighbors g current (fun v id ->
        if Damage.neighbor_unreachable damage v id then carry id);
    incr sp_calcs;
    match Spt.path (tree s ~root:current !carried_rev) dst with
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
