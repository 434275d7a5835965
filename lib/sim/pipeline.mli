(** The staged experiment pipeline: generate and evaluate.

    The experiment path is three decoupled stages connected by the
    {!Stream} codec — [generate] (scenario records from the sequential
    RNG), [evaluate] (the parallel hot loop, streaming with
    backpressure), and reduce ([Experiments.reduce_stream], which owns
    the artifact types).  [Experiments.collect] runs all three in
    process; [bin/rtr_sim]'s [generate]/[evaluate]/[reduce] subcommands
    run them as separate processes over files.  Both paths evaluate
    scenarios rebuilt by [Stream.to_scenario], so they are
    bit-identical by construction. *)

val mrc_for : mrc_k:int option -> Rtr_graph.Graph.t -> Rtr_baselines.Mrc.t
(** The experiment harness's MRC construction policy,
    [Mrc.build_auto ?k_start:mrc_k]: [Some k] builds with exactly [k]
    configurations, falling back to [k+1] upward when infeasible;
    [None] is the full auto search.  [Mrc.configs_needed
    ?k_start:mrc_k] gives the same k without building the tables. *)

val generate :
  presets:Rtr_topo.Isp.preset list ->
  rec_quota:int ->
  irr_quota:int ->
  seed:int ->
  mrc_k:int option ->
  unit ->
  Stream.header * Stream.scenario list
(** Draw failure areas per preset until both case quotas are met
    (capped at 100k areas), exactly as the pre-stream collector did:
    same RNG stream, same quota filter, same record order.  [mrc_k] is
    only echoed into the header (generation never builds MRC) so the
    stream is self-describing for [evaluate]. *)

val evaluate :
  jobs:int ->
  ?capacity:int ->
  header:Stream.header ->
  next:(unit -> Stream.scenario option) ->
  emit:(Stream.result -> unit) ->
  unit ->
  (string * int) list
(** Pull scenario records from [next], evaluate them on the domain pool
    with bounded in-flight work ([Parallel.stream]), and hand results
    to [emit] in submission order — the full record set is never
    materialised.  Per-topology contexts (shared cache, MRC) are built
    lazily by the coordinator as each topology first appears.  Returns
    the [(as_name, mrc_configs)] pairs of the topologies touched, for
    the shard footer.  Counts [stream.results] per record. *)
