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
