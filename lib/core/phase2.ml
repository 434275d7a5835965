module Graph = Rtr_graph.Graph
module View = Rtr_graph.View
module Damage = Rtr_failure.Damage
module Dijkstra = Rtr_graph.Dijkstra
module Spt = Rtr_graph.Spt

module Metrics = Rtr_obs.Metrics

let c_creates = Metrics.counter "phase2.creates"
let c_sp_calcs = Metrics.counter "phase2.sp_calcs"
let c_cache_hits = Metrics.counter "phase2.cache_hits"

type t = {
  initiator : Graph.node;
  view : View.t;
  spt : Spt.t;
  cache : (Graph.node, Rtr_graph.Path.t option) Hashtbl.t;
  mutable sp_calcs : int;
}

let create topo damage ~initiator ~removed =
  let g = Rtr_topo.Topology.graph topo in
  (* The initiator's post-phase-1 view: the full graph minus the
     collected links and its own dead links. *)
  let dead = Array.make (Graph.n_links g) false in
  List.iter (fun id -> dead.(id) <- true) removed;
  List.iter
    (fun (_, id) -> dead.(id) <- true)
    (Damage.unreachable_neighbors damage g initiator);
  let view =
    View.remove_links (View.full g)
      (List.filter (fun id -> dead.(id)) (List.init (Graph.n_links g) Fun.id))
  in
  (* One tree over the damaged view serves every destination.  It runs
     in the domain workspace and is copied out, so the session owns its
     labels and may overlap or outlive any other workspace run. *)
  let spt =
    Spt.copy
      (Dijkstra.spt ~workspace:(Dijkstra.Workspace.get ()) view ~root:initiator
         ())
  in
  Metrics.Counter.incr c_creates;
  {
    initiator;
    view;
    spt;
    cache = Hashtbl.create 16;
    sp_calcs = 0;
  }

let initiator t = t.initiator
let view t = t.view

let recovery_path t ~dst =
  match Hashtbl.find_opt t.cache dst with
  | Some cached ->
      Metrics.Counter.incr c_cache_hits;
      cached
  | None ->
      t.sp_calcs <- t.sp_calcs + 1;
      Metrics.Counter.incr c_sp_calcs;
      let path = Spt.path t.spt dst in
      Hashtbl.replace t.cache dst path;
      path

let recovery_distance t ~dst =
  match recovery_path t ~dst with
  | None -> None
  | Some _ -> Some (Spt.dist t.spt dst)

let sp_calculations t = t.sp_calcs
