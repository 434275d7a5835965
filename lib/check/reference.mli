(** The textbook reference the graph layer is checked against.

    Every theorem oracle judges the protocol against our own Dijkstra
    over [Damage.view], so that Dijkstra, the workspace arena, the
    routing tables and the component labelling are in turn checked
    against this module, which shares none of their code. *)

val spt :
  Rtr_graph.View.t ->
  root:Rtr_graph.Graph.node ->
  direction:Rtr_graph.Spt.direction ->
  Rtr_graph.Spt.t
(** O(n²) selection-scan Dijkstra from/towards [root] over the live
    part of the view, followed by the canonical tree: each reached
    node's parent is its smallest-id live neighbour on a shortest
    path.  A masked-out root reaches nothing.  Costs must be positive. *)

val fcp :
  Rtr_topo.Topology.t ->
  Rtr_failure.Damage.t ->
  initiator:Rtr_graph.Graph.node ->
  dst:Rtr_graph.Graph.node ->
  Rtr_baselines.Fcp.result
(** FCP recomputed from scratch: each round's path is [spt]'s canonical
    path over the pre-failure map minus the links carried so far, with
    no tree kept between rounds.  [Rtr_baselines.Fcp.route] must equal
    it field for field, however its session shares trees. *)
