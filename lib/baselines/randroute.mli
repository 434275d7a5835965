(** Randomized low-congestion local rerouting, after Bankhamer,
    Elsässer & Schmid ("Local Fast Rerouting with Low Congestion",
    arXiv:2009.01497) — the third baseline next to FCP and MRC.

    Where RTR optimizes stretch (shortest recovery paths concentrate
    every rerouted flow onto the cheapest detour, so the links at the
    failure boundary absorb the whole displaced load), this scheme
    spreads rerouted flows by sending each via a {e random intermediate
    node}: the router where a flow breaks picks, per flow, a small
    number of candidate intermediates from pre-agreed pseudo-random
    permutations of the node set (their 3-permutation scheme), and
    forwards the flow [initiator -> via -> destination] along default
    routes of the surviving topology.  Randomization spreads the
    displaced load roughly evenly — Valiant-style — at the price of
    stretch.

    Everything here is deterministic: the permutations are seeded at
    construction and the candidate choice for a flow depends only on
    [(seed, flow, initiator, dst)], never on evaluation order or shared
    mutable load state, so sharded runs stay jobs-invariant bit for
    bit. *)

module Graph = Rtr_graph.Graph

type t

val create : ?seed:int -> ?candidates:int -> Graph.t -> t
(** Builds [candidates] (default 3) seeded pseudo-random permutations
    of the node set.  [seed] defaults to the scheme's fixed default;
    pass the experiment seed to vary instances reproducibly. *)

type outcome =
  | Rerouted of { via : Graph.node; nodes : Graph.node list; cost : int }
      (** The chosen route [initiator -> via -> dst] as the node walk
          over the damaged routing table, with its total cost.  When no
          candidate intermediate has both segments live, [via] is the
          initiator itself: the direct damaged-table fallback route. *)
  | No_route
      (** The destination (or every candidate leg towards it) is
          unreachable in the damaged table. *)

val reroute :
  t ->
  Rtr_routing.Route_table.t ->
  flow:int ->
  initiator:Graph.node ->
  dst:Graph.node ->
  outcome
(** [reroute t damaged ~flow ~initiator ~dst] selects the candidate
    intermediates for [flow] from the permutations, keeps those whose
    both legs exist in [damaged] (the routing table of the surviving
    topology), and picks the cheapest (total cost, earliest permutation
    breaking ties).  The walk may revisit nodes — the flow genuinely
    traverses shared links twice, and is charged for them twice. *)
