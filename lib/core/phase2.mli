(** Phase 2: recomputation and rerouting (Sec. III-D).

    The recovery initiator removes from its topology view the links
    collected in phase 1 plus its own links to unreachable neighbours,
    computes one shortest-path tree over that view, and source-routes
    packets along the tree's paths.  Paths are cached: one
    shortest-path calculation per affected destination, which is the
    paper's computational-overhead accounting for RTR. *)

module Graph = Rtr_graph.Graph

type t

val create :
  Rtr_topo.Topology.t ->
  Rtr_failure.Damage.t ->
  initiator:Graph.node ->
  removed:Graph.link_id list ->
  t
(** Builds the initiator's view: the full graph minus [removed] (the
    phase-1 collection, plus any failure information already carried
    in the packet header, as in the multiple-failure-area extension of
    Sec. III-E) minus the initiator's links to unreachable neighbours.
    [Damage] is consulted only for that {e local} knowledge — phase 2
    never peeks at the global failure state.

    The session owns its shortest-path tree, so any number of sessions
    may be live on one domain at once. *)

val initiator : t -> Graph.node

val view : t -> Rtr_graph.View.t
(** The initiator's post-phase-1 failure view: the full graph minus
    the removed links. *)

val recovery_path : t -> dst:Graph.node -> Rtr_graph.Path.t option
(** The shortest path from the initiator to [dst] in the view; [None]
    means the destination looks unreachable and packets for it are
    discarded immediately.  Cached per destination. *)

val recovery_distance : t -> dst:Graph.node -> int option

val sp_calculations : t -> int
(** Number of distinct destinations for which a shortest path has been
    calculated so far — the paper counts exactly 1 per test case. *)
