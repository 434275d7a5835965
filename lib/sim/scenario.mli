(** Failure scenarios and the paper's test cases (Sec. IV-A).

    A scenario is one random disc failure on a topology.  A test case
    is a (recovery initiator, destination) pair — failed routing paths
    sharing both have identical recovery processes, so the paper
    deduplicates them.  A pair (u, t) is a test case exactly when u is
    live and its default next hop towards t is locally unreachable (u
    is then the initiator for every affected source routing through
    it, including u itself). *)

module Graph = Rtr_graph.Graph

type kind = Recoverable | Irrecoverable

type case = {
  initiator : Graph.node;
  trigger : Graph.node;  (** the unreachable default next hop *)
  dst : Graph.node;
  kind : kind;
  shortest_after : int option;
      (** cost of the true shortest initiator->dst path in the damaged
          graph ([None] for irrecoverable cases): the optimality
          yardstick of Theorem 2 *)
}

type t = {
  topo : Rtr_topo.Topology.t;
  table : Rtr_routing.Route_table.t;
  area : Rtr_failure.Area.t;
  damage : Rtr_failure.Damage.t;
  cases : case list;
}

val generate :
  Rtr_topo.Topology.t ->
  Rtr_routing.Route_table.t ->
  Rtr_util.Rng.t ->
  ?r_min:float ->
  ?r_max:float ->
  unit ->
  t
(** One random disc (defaults to the paper's U(100, 300) radius) and
    its deduplicated test cases. *)

val of_area : Rtr_topo.Topology.t -> Rtr_routing.Route_table.t -> Rtr_failure.Area.t -> t
(** Deterministic variant for tests and examples. *)

val find_case :
  Rtr_topo.Topology.t ->
  Rtr_routing.Route_table.t ->
  Rtr_failure.Damage.t ->
  initiator:Graph.node ->
  dst:Graph.node ->
  case option
(** The test case (initiator, dst) under this damage, if it is one —
    the single-pair test {!cases_of_damage} applies to every pair.  A
    case costs one damaged-graph Dijkstra from the initiator (its
    [shortest_after]); a non-case costs a route-table read. *)

val cases_of_damage :
  Rtr_topo.Topology.t ->
  Rtr_routing.Route_table.t ->
  Rtr_failure.Damage.t ->
  case list
(** The deduplicated test cases an arbitrary damage creates (what
    [of_area] enumerates), ascending by (initiator, dst) — shared by
    the fuzz oracles and the recovery-map compiler, which both start
    from explicit failure sets rather than areas. *)

val count_failed_paths :
  Rtr_topo.Topology.t ->
  Rtr_routing.Route_table.t ->
  Rtr_failure.Damage.t ->
  int * int
(** [(recoverable, irrecoverable)] counts over {e all} failed routing
    paths with a live source (no deduplication) — what Fig. 11
    plots.

    Apply it to [topo] and [table] once and reuse the result for every
    damage: the partial application builds a preorder index of each
    destination's tree in the table (3 n{^ 2} words), and the damage
    function then scans only the subtrees the damage cuts, in
    O(n * |failed elements| + failed paths) plus one components pass.
    Passing all three arguments at once gives the same counts but
    rebuilds the index.  The damage function only reads the index and
    allocates its scratch per call, so one instance may be shared
    across domains. *)
