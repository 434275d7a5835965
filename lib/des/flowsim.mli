(** Flow-level recovery engine.

    Where {!Netsim} replays individual probe packets through a
    discrete-event simulation, this engine evaluates {e flows} —
    [(source, destination, rate)] triples from a synthetic demand
    matrix — against a piecewise-constant time model of the same
    failure, and accumulates {e per-link load} as flows are
    (re)routed during convergence.  That is what the per-packet engine
    cannot see at scale: whether a recovery scheme that delivers packets
    does so by piling every displaced flow onto the same three surviving
    links.

    {2 Time model}

    The damage strikes at [t_fail] and holds to [t_end].  Before
    [t_fail] every flow follows the pre-failure FIBs; after it, the run
    is split into three global windows:

    - [[t_fail, t_det))] — hold-down: routers still forward on the
      pre-failure FIBs, flows crossing the damage are blackholed;
    - [[t_det, t_conv))] — recovery: broken flows are rerouted by the
      configured scheme; per-link load in this window is the congestion
      signal reported by {!finish};
    - [[t_conv, t_end))] — converged: the post-failure FIBs.

    [t_det = t_fail + detection_s] and
    [t_conv = t_fail + Convergence.finished_at]: convergence is a
    {e global} boundary here, a deliberate coarsening of the packet
    engine's per-router convergence times.  The [flow_vs_packet] oracle bounds the
    resulting delivery gap on small topologies.

    {2 Determinism}

    All merged quantities are integers (rates, rate x millisecond
    products, per-link load counters), so {!merge} is associative and
    a sharded evaluation reduces to byte-identical results at every
    [--jobs].  Recovery outcomes are pure functions of
    [(initiator, trigger, dst)] (plus the flow index for
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

type config = {
  igp : Rtr_igp.Igp_config.t;
  scheme : scheme;
  t_fail : float;
  t_end : float;
  seed : int;  (** seeds [Randroute]'s permutations *)
  overload_factor : float;
      (** a link is overloaded when its recovery-window load exceeds
          [overload_factor x] the pre-failure peak link load *)
}

val default_config : config

type context
(** Per-run state, shareable across evaluation shards: routing tables
    and window boundaries, immutable, plus one private slot of resolved
    recovery outcomes.  The pre-failure and post-failure tables come
    from the topology's shared cache
    ({!Rtr_routing.Topo_cache}), not per-context copies: the five
    scheme contexts of one damage compute its post-failure table once.

    The slot holds, for the last flow array evaluated (matched by
    physical equality), the RTR, FCP or MRC route of every distinct
    [(initiator, trigger, dst)] its flows break at.  It is filled
    under a [Mutex] and never written again until another array
    replaces it, so each distinct recovery is computed once per
    (context, flow array), however the array is sliced. *)

val context : Rtr_topo.Topology.t -> Damage.t -> ?mrc:Mrc.t -> config -> context
(** [?mrc] supplies a prebuilt MRC structure (it is topology-only, so
    one build serves every damage case); built on demand when the
    scheme is [Mrc_scheme] and none is given. *)

type acc
(** Mergeable integer accumulators for one evaluated slice. *)

val eval_slice : context -> flow array -> lo:int -> hi:int -> acc
(** Evaluates [flows.(lo) .. flows.(hi - 1)].  Slices of the same array
    may be evaluated concurrently; flow identity (the array index) is
    what keeps randomized decisions shard-invariant.

    Under [Rtr_scheme], [Fcp_scheme] and [Mrc_scheme], the first slice
    of a context over an array first resolves the outcomes of the
    {e whole} array into the context's slot, walking every flow in
    index order through one set of RTR and FCP sessions; every slice
    then only reads that table.  The resolve pass is the same whichever
    slice or domain runs it, so work counters are identical at every
    [--jobs].  It runs serially: at [--jobs > 1] the other domains wait
    on the slot's mutex until it is done.  [No_recovery] and
    [Randroute_scheme] (per-flow by design) resolve nothing ahead. *)

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
  broken : int;  (** flows whose default path crossed the damage *)
  recovered : int;  (** of those, delivered during the recovery window *)
  stretch_agg : float;
      (** aggregate stretch of recovered flows: sum of recovery
          route costs over sum of converged shortest-path costs *)
  stretch_max : float;  (** worst single recovered flow *)
  base_max_load : int;  (** peak link load, pre-failure window *)
  rec_max_load : int;  (** peak link load, recovery window *)
  post_max_load : int;  (** peak link load, converged window *)
  overloaded_links : int;
  rec_link_loads : int array;
      (** per-link recovery-window load, indexed by link id — feed to
          {!Rtr_sim.Cdf} for load distributions *)
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
