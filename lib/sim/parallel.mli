(** Simulator-side bridge to [Rtr_util.Pool]: sharded evaluation with
    the observability subsystem wired through.

    The pool itself is deliberately ignorant of metrics and tracing;
    this module installs the seams — a [pool.shard] trace span per
    worker, a per-domain metrics snapshot folded back into the
    coordinator with [Metrics.absorb], and [pool.*] scheduling metrics
    — so callers shard with one function call. *)

val check_jobs : int -> (int, string) result
(** [Ok n] when [n] is in [1..Rtr_util.Pool.max_jobs], else the
    one-line error [--jobs] reports. *)

val env_jobs : unit -> int
(** [RTR_JOBS] parsed as an integer in [1..Rtr_util.Pool.max_jobs];
    [Domain.recommended_domain_count ()] (at most [max_jobs]) when the
    variable is unset, so multi-core runners parallelise by default
    (results are jobs-invariant throughout).  A set value that is
    malformed or out of range falls back to the same recommended count,
    with a warning to stderr. *)

val noted_jobs : unit -> int option
(** The largest [jobs] [map] or [stream] of this process was called
    with, or [None] when no sharded entry point ran — the effective
    parallelism a run manifest should record. *)

val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f input] is [Rtr_util.Pool.map] plus observability.
    Results come back in submission order regardless of scheduling.
    It runs on the same scheduler as [stream] (the pool has only one),
    fed from the array with [min jobs (Array.length input)] workers.

    With [jobs <= 1] (or fewer than two tasks) this is exactly
    [Array.map]: no domains, no [pool.*] metrics registered, so a
    sequential run's metrics file is byte-identical to the pre-pool
    code path.  With [jobs > 1], each worker runs under a
    [pool.shard] span, its metric cells are absorbed into the calling
    domain's at the join, and [pool.runs]/[pool.tasks]/[pool.jobs]
    plus per-worker task/busy/idle histograms are recorded.  The
    [pool.*] scheduling metrics are inherently timing-dependent; every
    simulation metric absorbed from workers merges to totals
    independent of the schedule. *)

val stream :
  jobs:int ->
  ?capacity:int ->
  ('a -> 'b) ->
  producer:(unit -> 'a option) ->
  consumer:(int -> 'b -> unit) ->
  unit ->
  int
(** [Rtr_util.Pool.stream] plus the same observability wiring as
    [map]: bounded in-flight work pulled from [producer], results
    delivered to [consumer] in submission order, at most [capacity]
    (default [4 * jobs]) tasks in flight.  Returns the task count.
    [pool.jobs] records the workers actually spawned: a stream of
    fewer than [jobs] tasks spawns one per task.  [jobs <= 1] is the
    bare sequential loop with no [pool.*] metrics, exactly like
    [map]'s degenerate case. *)
