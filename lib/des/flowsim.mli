(** Flow-level recovery engine.

    Where {!Netsim} replays individual probe packets through a
    discrete-event simulation, this engine evaluates {e flows} —
    [(source, destination, rate)] triples from a synthetic demand
    matrix — against a piecewise-constant time model of the same
    failure timeline, and accumulates {e per-link load} as flows are
    (re)routed during convergence.  That is what the per-packet engine
    cannot see at scale: whether a recovery scheme that delivers packets
    does so by piling every displaced flow onto the same three surviving
    links.

    {2 Time model}

    Each ground-truth era (the initial failure at [t_fail], then each
    episode) is split into three global windows:

    - [[e_start, e_det))] — hold-down: routers still forward on the
      pre-failure FIBs, flows crossing the damage are blackholed;
    - [[e_det, e_conv))] — recovery: broken flows are rerouted by the
      configured scheme; per-link load in this window is the congestion
      signal reported by {!finish};
    - [[e_conv, e_end))] — converged: the era's post-failure FIBs.

    [e_det = e_start + detection_s] and
    [e_conv = e_start + Convergence.finished_at]: detection and
    convergence are {e global} boundaries here, a deliberate coarsening
    of the packet engine's per-link hold-down carryover and per-router
    convergence times.  The [flow_vs_packet] oracle bounds the
    resulting delivery gap on small topologies.

    {2 Determinism}

    All merged quantities are integers (rates, rate x millisecond
    products, per-link load counters), so {!merge} is associative and
    a sharded evaluation reduces to byte-identical results at every
    [--jobs].  Recovery outcomes are pure functions of
    [(era, initiator, trigger, dst)] (plus the flow index for
    [Randroute]), never of evaluation order or shared load state. *)

module Graph = Rtr_graph.Graph
module Damage = Rtr_failure.Damage
module Mrc = Rtr_baselines.Mrc

type flow = { src : Graph.node; dst : Graph.node; rate : int }

type scheme =
  | No_recovery
  | Rtr_scheme  (** the paper's optimal-recovery source routing *)
  | Fcp_scheme
  | Mrc_scheme
  | Randroute_scheme  (** {!Rtr_baselines.Randroute} *)

val scheme_name : scheme -> string
val scheme_of_name : string -> scheme option

type config = {
  igp : Rtr_igp.Igp_config.t;
  scheme : scheme;
  t_fail : float;
  t_end : float;
  episodes : (float * Damage.t) list;
      (** later ground-truth transitions, as [(start, damage)];
          unsorted accepted *)
  seed : int;  (** seeds [Randroute]'s permutations *)
  overload_factor : float;
      (** a link is overloaded when its recovery-window load exceeds
          [overload_factor x] the pre-failure peak link load *)
}

val default_config : config

type context
(** Immutable per-run state: routing tables and window boundaries for
    every era, shareable across evaluation shards.  The pre-failure
    table is the topology's shared one ({!Rtr_routing.Topo_cache}), not
    a per-context copy. *)

val context : Rtr_topo.Topology.t -> Damage.t -> ?mrc:Mrc.t -> config -> context
(** [?mrc] supplies a prebuilt MRC structure (it is topology-only, so
    one build serves every damage case); built on demand when the
    scheme is [Mrc_scheme] and none is given. *)

type acc
(** Mergeable integer accumulators for one evaluated slice. *)

val eval_slice : context -> flow array -> lo:int -> hi:int -> acc
(** Evaluates [flows.(lo) .. flows.(hi - 1)].  Slices of the same array
    may be evaluated concurrently; flow identity (the array index) is
    what keeps randomized decisions shard-invariant. *)

val merge : acc -> acc -> acc
(** Folds the right accumulator into the left {e in place} and returns
    the left.  Associative; fold shards in submission order. *)

type stats = {
  flows : int;  (** flows evaluated *)
  offered_ratems : int;  (** sum of rate x window-ms offered *)
  delivered_ratems : int;
  blackholed_ratems : int;  (** lost in hold-down windows *)
  dropped_recovery_ratems : int;  (** scheme failed during recovery *)
  dropped_no_route_ratems : int;  (** no route (dead source, partition) *)
  delivered_frac : float;  (** delivered / offered *)
  broken : int;  (** flow-eras whose default path crossed the damage *)
  recovered : int;  (** of those, delivered during the recovery window *)
  stretch_agg : float;
      (** aggregate stretch of recovered flow-eras: sum of recovery
          route costs over sum of converged shortest-path costs *)
  stretch_max : float;  (** worst single recovered flow-era *)
  base_max_load : int;  (** peak link load, pre-failure window *)
  rec_max_load : int;  (** peak link load across recovery windows *)
  post_max_load : int;  (** peak link load, converged windows *)
  overloaded_links : int;
  rec_link_loads : int array;
      (** per-link recovery-window load (max across eras), indexed by
          link id — feed to {!Rtr_sim.Cdf} for load distributions *)
}

val finish : context -> acc -> stats
(** Reduces merged accumulators to reportable statistics, and bumps the
    [flowsim.flows] counter and [flowsim.max_load] gauge. *)

val run :
  Rtr_topo.Topology.t -> Damage.t -> ?mrc:Mrc.t -> config -> flow array -> stats
(** Sequential convenience: [context] + one [eval_slice] + [finish]. *)

val demand : Rtr_topo.Topology.t -> n:int -> seed:int -> flow array
(** Gravity-style synthetic demand matrix: endpoints drawn with
    probability proportional to node degree, integer rates in [1..9].
    Deterministic in [(topology, seed, n)]. *)

val ensure_metrics_registered : unit -> unit
(** Forces this module's metrics (the [flowsim.flows] counter and
    [flowsim.max_load] gauge) to register even if no flow run happens,
    so reports always carry the fields. *)
