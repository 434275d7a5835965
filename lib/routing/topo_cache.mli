(** Per-topology compute cache.

    Experiments evaluate hundreds of failure scenarios against the same
    topology; what depends only on the {e pre-failure} topology is
    computed once here and shared: the undamaged view and the
    pre-failure routing table ([table]), reused by the scenario
    rejection-sampling loop instead of one [Route_table.compute] per
    candidate, and by every [Rtr_des.Flowsim.context] instead of one
    per scheme.  One slot also holds the post-failure table of the
    last damage asked for ([post_table]), so the scheme contexts of one
    failure share it.  [Rtr_sim.Topo_cache] re-exports this module for
    the perfbench workloads only.

    Hit/miss counts are exported as [topo_cache.*] metrics. *)

type t

val create : Rtr_topo.Topology.t -> t
(** Empty cache; nothing is computed until first demanded.  Prefer
    {!shared} — a private cache forgets everything other stages already
    computed for the topology. *)

val shared : Rtr_topo.Topology.t -> t
(** The process-wide cache for this topology, created on first call
    (keyed by name, guarded by physical equality of the topology — a
    distinct same-named topology gets a fresh cache).  Every experiment
    stage asking for the same loaded topology gets the same cache, so
    e.g. the fig. 11 sweep reuses the routing table the main collection
    already computed. *)

val table : t -> Route_table.t
(** The pre-failure routing table, computed on first call. *)

val post_table : t -> Rtr_failure.Damage.t -> Route_table.t
(** The table the IGP converges to after [damage]:
    [Route_table.compute (Damage.view damage)], computed once and
    shared by every [Rtr_des.Flowsim.context] and [Rtr_des.Netsim.run]
    of that damage (the congestion sweep builds five scheme contexts on
    one damage: one computation, four hits).

    The cache holds one damage per topology, the last one asked for,
    matched by physical equality: a distinct but [Damage.equal] value
    is a miss, recomputed to an equal table, and replaces the slot.
    One slot suffices because every caller asks for one damage's
    table several times in a row and never alternates between damages
    of one topology.  Counted in
    [topo_cache.post_hits] and [topo_cache.post_misses].  Thread-safe:
    computes under the cache's lock, like [table]. *)
