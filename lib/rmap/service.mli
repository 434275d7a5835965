(** The lookup half of the recovery map ([rtr_sim serve]).

    Loads one artifact and answers "failure signature → recovery
    next-hops / path / stretch" queries: an O(log n_scenarios) index
    probe plus an O(log cases) record probe plus O(path) reads.  On a
    signature miss the service answers the queried case reactively
    over the same canonical link-set damage, exactly as RTR would at
    recovery time: {!Rtr_sim.Scenario.find_case} decides whether the
    query is a case (one route-table read, plus one Dijkstra for the
    true cost when it is), then one RTR session ([Rtr.start]) answers
    it through {!Compile.eval_case}, the compiler's own per-case code.
    A miss therefore costs one session, not a recompile of the whole
    failure, and never a wrong answer — Table III's tradeoff at
    runtime.  Misses bump [rmap.fallback_reactive]. *)

module Graph = Rtr_graph.Graph

type t

val create : ?topo:Rtr_topo.Topology.t -> Store.t -> (t, string) result
(** [topo], when given, enables the reactive fallback and must match
    the artifact's node/link counts ([Error] otherwise).  Without it,
    signature misses return an [Error] instead of recomputing. *)

type reply = {
  from_artifact : bool;  (** false: computed by the reactive fallback *)
  kind : Store.kind;
  cost : int;
  true_cost : int;
  stretch : float option;
  path : int array;  (** the source route, initiator first *)
}

val query :
  t ->
  links:Graph.link_id list ->
  initiator:int ->
  trigger:int ->
  dst:int ->
  (reply, string) result
(** [links] is the failure signature (any order, duplicates fine).
    [Error] when the query is out of range, names no recovery case of
    the scenario (the default route is unaffected), or misses the
    artifact with no fallback topology. *)

type bench = {
  lookups : int;
  hits : int;
  misses : int;
  wall_s : float;
  per_sec : float;
  ns_per_lookup : float;
}

val bench_lookups : t -> n:int -> seed:int -> bench
(** Drive [n] random index probes — signatures drawn from the artifact
    itself, with 1 in 8 perturbed by toggling one link so the miss path
    is exercised too — and measure raw lookup throughput (no reactive
    fallback; a hit also reads one case field).  Records the
    [rmap.lookups_per_sec] and [rmap.lookup_ns] gauges; hit/miss counts
    land in [rmap.lookup_hits]/[rmap.lookup_misses] as usual.
    Deterministic in [seed] (except wall-clock figures). *)
