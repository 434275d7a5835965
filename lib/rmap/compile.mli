(** The offline recovery-map compiler ([rtr_sim precompute]).

    For every enumerated failure scenario this runs RTR — phase 1 plus
    phase 2, one session per (initiator, trigger), over the shared
    {!Rtr_routing.Topo_cache} routing table — and
    records, per test case, exactly what the reactive protocol would
    answer at recovery time: outcome kind, the emitted source route,
    its cost in the initiator's view, and the true damaged-graph
    shortest cost (the stretch denominator).

    Scenario evaluation shards over [Rtr_sim.Parallel.map]; results
    come back in submission order and assembly is sequential, so the
    artifact is byte-identical at any [--jobs] (the PR 3 merge
    discipline).  Instrumented as [rmap.compile] spans plus
    [rmap.scenarios] / [rmap.cases] counters and
    [rmap.artifact_bytes] / [rmap.precompute_cases_per_sec] gauges. *)

module Graph = Rtr_graph.Graph

val eval_case : Rtr_core.Rtr.t -> Rtr_sim.Scenario.case -> Store.case
(** The answer to one recovery case, given the case's RTR session
    ([Rtr.start] for its initiator and trigger over the same damage):
    the outcome kind, the emitted source route, its cost in the
    initiator's view (the session's distance label) and the true cost
    from [shortest_after] ([-1] when irrecoverable).  The compiler and
    the lookup service's fallback both answer through it, so hit and
    miss answers agree by construction. *)

val eval_links :
  Rtr_topo.Topology.t ->
  Rtr_routing.Route_table.t ->
  Graph.link_id list ->
  Store.case array
(** The per-scenario kernel: canonical link-set damage
    ([Damage.of_failed ~nodes:[]]), every case of
    [Scenario.cases_of_damage], one RTR session per (initiator,
    trigger) shared by that session's destinations, and [eval_case]
    per case. *)

type result = {
  artifact : string;  (** the encoded [rmap/1] blob *)
  manifest : Rtr_obs.Json.t;
  stats : Enum.stats;
  n_scenarios : int;
  n_cases : int;
  wall_s : float;
}

val run :
  ?log:(string -> unit) ->
  ?jobs:int ->
  Rtr_topo.Topology.t ->
  Enum.config ->
  result
(** Enumerate, evaluate (sharded over [jobs] domains, default 1),
    encode.  The manifest is a JSON object ([format =
    "rmap-manifest/1"]) recording the topology, enumeration config and
    stats, artifact size and an FNV-1a 64-bit content hash. *)

val fnv64_hex : string -> string
(** The manifest's content hash (FNV-1a, 64-bit, lower-case hex). *)
