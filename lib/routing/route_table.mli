(** Link-state routing tables (the IGP's steady state before failures).

    Every router runs SPF over the same topology view, so the table is
    computed globally: for each destination, a [To_root] shortest-path
    tree (correct under asymmetric costs), with the deterministic
    tie-break "smallest next-hop id among equal-cost choices" — the
    tree's own parent pointers, by [Dijkstra.spt]'s contract.  That
    rule is consistent hop by hop — following [next_hop] from any
    source traces a well-defined default routing path, the paper's
    p_ij. *)

module Graph = Rtr_graph.Graph
module View = Rtr_graph.View

type t

val compute : View.t -> t
(** O(n * Dijkstra) over the live part of the view.  Over [View.full g]
    this is the pre-failure routing state; over a damage view it is the
    table the IGP converges to after the failed elements are removed. *)

val next_hop : t -> src:Graph.node -> dst:Graph.node -> Graph.node option
(** The default next hop, [None] when [src = dst] or [dst] is
    unreachable in the pre-failure topology. *)

val next_link : t -> src:Graph.node -> dst:Graph.node -> Graph.link_id option

val dist : t -> src:Graph.node -> dst:Graph.node -> int
(** Cost of the default routing path; [max_int] if unreachable, [0] on
    the diagonal. *)

val next_row : t -> dst:Graph.node -> int array
val link_row : t -> dst:Graph.node -> int array
(** The table's own rows towards [dst], indexed by source:
    [(next_row t ~dst).(src)] is [next_hop t ~src ~dst] and
    [(link_row t ~dst).(src)] is [next_link t ~src ~dst], with [-1] for
    [None].  Shared, not copied — read only.  For hot loops that walk
    many routes to one destination without an option per hop:
    Flowsim's window routing, and [Scenario.count_failed_paths], which
    indexes the tree these rows form towards [dst] once per table and
    then classifies a damage's failed paths from the subtrees it
    cuts. *)

val default_path : t -> src:Graph.node -> dst:Graph.node -> Rtr_graph.Path.t option
(** The full default routing path, by following [next_hop]. *)

val equal : t -> t -> bool
(** Structural equality of the routing state (same underlying graph,
    same next hops, links and distances) — the equivalence suite's
    notion of "bit-for-bit identical tables". *)
