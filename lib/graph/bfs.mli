(** Breadth-first search over a failure view.

    Used for hop-count distances, reachability classification of failed
    routing paths, and as an independent oracle against which Dijkstra
    is property-tested (on unit costs they must agree). *)

type result = {
  dist : int array;  (** hop distance from the source; [max_int] if unreachable *)
  parent : int array;  (** predecessor node on a shortest hop path; [-1] at the source and for unreachable nodes *)
}

val run : View.t -> source:Graph.node -> result
(** Nodes and links masked out by the view are never visited.  If the
    source itself is masked out, every distance is [max_int].  A
    node's parent is the neighbour it was first discovered from in
    FIFO order, which need not be the smallest-id neighbour one hop
    closer (neighbours are scanned in ascending order, but the queue
    order of the parents decides). *)

val reachable : View.t -> Graph.node -> Graph.node -> bool
