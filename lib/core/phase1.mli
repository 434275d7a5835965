(** Phase 1: forwarding packets around the failure area to collect
    failure information (Sec. III-B/C).

    The walk starts at the recovery initiator, whose default next hop
    towards some destination just became unreachable, and follows the
    right-hand rule ([Sweep]) under the two constraints:

    - Constraint 1: never cross a link between the initiator and one of
      its unreachable neighbours (seeded into [cross_link] by the
      initiator);
    - Constraint 2: never let the forwarding path cross itself (a
      selected link that still has un-excluded crossers joins
      [cross_link]).

    Every visited router appends the ids of its failed links to the
    packet's [failed_link] field — except links incident to the
    initiator, which the initiator already knows about.  The walk ends
    when the packet is back at the initiator and the sweep re-selects
    the first hop. *)

module Graph = Rtr_graph.Graph

type status =
  | Completed  (** the walk closed the cycle around the failure *)
  | No_live_neighbor
      (** the initiator is completely cut off; nothing to walk — the
          initiator still "completes" with an empty collection *)
  | Hop_limit
      (** simulator safety net: the walk is cut the moment taking one
          more hop would exceed the TTL ({!hop_limit} by default), so
          [hops] never exceeds it.  Theorem 1 says this is unreachable,
          and the property tests assert so *)
  | Stuck of Graph.node
      (** a router found no eligible next hop mid-walk; like
          [Hop_limit], never observed in practice *)

type step = {
  at : Graph.node;
  reference : Graph.node;  (** the sweeping-line neighbour used *)
  chosen : Graph.node;
  via : Graph.link_id;
  header_bytes : int;
      (** recovery bytes carried while crossing this hop *)
}

type result = {
  initiator : Graph.node;
  trigger : Graph.node;
      (** the unreachable default next hop that started recovery *)
  status : status;
  walk : Graph.node list;
      (** initiator first; ends back at the initiator iff [Completed]
          (trivially [[initiator]] for [No_live_neighbor]) *)
  hops : int;
  failed_links : Graph.link_id list;
      (** E1, in collection order; a subset of the truly failed links
          (Theorem 2's premise), never containing initiator-incident
          links *)
  cross_links : Graph.link_id list;  (** final cross_link contents *)
  steps : step list;  (** one per hop, in order *)
}

val hop_limit : Graph.t -> int
(** [4 * n_links + 4], Theorem 1's bound on a walk and the default TTL
    of every walk.  A walker that has taken that many hops and is not
    closing its cycle stops with [Hop_limit]; the completion check runs
    first, so a walk that closes with exactly the limit spent still
    reports [Completed]. *)

(** {2 The walker}

    The header of one walking packet, stepped router by router.  {!run}
    steps it under one damage; the packet simulator steps it with the
    damage of whichever era is active when the packet arrives, so a
    walk may straddle an episode boundary. *)

type walker

type move =
  | Hop of step  (** the packet crosses [via] to [chosen] *)
  | Stop of status  (** the walk is over; step the walker no further *)

val start :
  Rtr_topo.Topology.t ->
  Rtr_failure.Damage.t ->
  initiator:Graph.node ->
  trigger:Graph.node ->
  walker * move
(** The initiator's part of the protocol's walk (constraints on, the
    right hand, the default {!hop_limit}): seed [cross_link]
    (Constraint 1), select the first hop by sweeping from [trigger],
    and apply Constraint 2 to its link.  [Stop No_live_neighbor] when
    nothing is eligible.  Assumes, without checking, the preconditions
    {!run} checks. *)

val step : walker -> Rtr_failure.Damage.t -> move
(** The packet has arrived at the router the last [Hop] chose, which
    sees [damage]: record its failed links (none at the initiator, and
    never a link to it), sweep from the previous hop, then close the
    cycle ([Stop Completed] when the initiator re-selects the first
    hop), hit the hop limit, get [Stuck], or take the hop. *)

val failed_links : walker -> Graph.link_id list
(** The collection so far, in collection order. *)

val run :
  Rtr_topo.Topology.t ->
  Rtr_failure.Damage.t ->
  ?constraints:bool ->
  ?hand:Sweep.hand ->
  ?hop_limit:int ->
  initiator:Graph.node ->
  trigger:Graph.node ->
  unit ->
  result
(** [trigger] must be a neighbour of [initiator] that is locally
    unreachable ([Invalid_argument] otherwise); the initiator itself
    must be live.

    [constraints] (default true) enables Constraints 1 and 2.  Setting
    it false runs the naked right-hand rule of Sec. III-B — correct on
    planar embeddings but subject to the forwarding disorders of
    Figs. 4/5 on general graphs.  Exposed for the ablation study; the
    protocol proper always keeps it on.

    [hand] (default [Sweep.Right]) selects the rotation direction; the
    bidirectional extension ([Bidir]) runs one walk per hand.

    [hop_limit] (default {!hop_limit}) overrides the TTL; exposed so
    tests can probe the boundary.

    A loop of {!step} over one damage; with the defaults, its walker is
    the one {!start} makes. *)

val duration_s : result -> float
(** Wall-clock length of the walk under the paper's 1.8 ms/hop delay
    model. *)
