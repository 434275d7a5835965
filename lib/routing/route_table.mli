(** Link-state routing tables (the IGP's steady state before failures).

    Every router runs SPF over the same topology view, so the table is
    computed globally: for each destination, a [To_root] shortest-path
    tree (correct under asymmetric costs), with the deterministic
    tie-break "smallest next-hop id among equal-cost choices".  That
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

val compute_filtered :
  ?node_ok:(Graph.node -> bool) ->
  ?link_ok:(Graph.link_id -> bool) ->
  Graph.t ->
  t
(** @deprecated Closure-pair reference implementation, kept as the
    oracle for the view/closure equivalence suite. *)

val graph : t -> Graph.t

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
    many routes to one destination without an option per hop. *)

val default_path : t -> src:Graph.node -> dst:Graph.node -> Rtr_graph.Path.t option
(** The full default routing path, by following [next_hop]. *)

val default_path_valid : t -> View.t -> src:Graph.node -> dst:Graph.node -> bool option
(** [default_path_valid t view ~src ~dst] is
    [Option.map (Path.is_valid view) (default_path t ~src ~dst)],
    computed allocation-free by walking the table rows against the
    view's bitsets — the hot classification kernel behind fig. 11. *)

val equal : t -> t -> bool
(** Structural equality of the routing state (same underlying graph,
    same next hops, links and distances) — the equivalence suite's
    notion of "bit-for-bit identical tables". *)
