(** Deterministic fork-join work pool over OCaml 5 domains.

    [map ~jobs f input] evaluates [f] on every element of [input] and
    returns the results {e in submission order} — [output.(i)] is
    always [f input.(i)] no matter which domain evaluated it or when it
    finished — so a parallel run is observationally a [Array.map] as
    long as [f] itself is deterministic and the tasks are independent.

    There is one scheduler, [stream]'s: the calling domain feeds a
    pending queue that idle workers pull from, and reorders finished
    results by sequence number.  [map] is [stream] fed from the array.
    Scheduling is dynamic, so per-worker shard composition varies run
    to run; only the reassembly is guaranteed stable.

    The pool is hand-rolled on stdlib [Domain]/[Mutex]/[Condition]
    only — no external dependencies. *)

val max_jobs : int
(** 127: the OCaml 5.1 runtime runs at most 128 domains, the calling
    domain and 127 workers.  [map] and [stream] never spawn more
    workers than this, whatever [jobs] asks for. *)

type worker_stats = {
  worker : int;  (** 0-based worker index *)
  tasks : int;  (** tasks this worker evaluated *)
  busy_s : float;  (** wall time spent inside [f] *)
  idle_s : float;  (** wall time spent waiting or coordinating *)
}

val map :
  ?wrap_worker:(int -> (unit -> unit) -> unit) ->
  ?on_stats:(worker_stats list -> unit) ->
  jobs:int ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** [map ~jobs f input] with [jobs <= 1] (or fewer than two tasks)
    degenerates to in-line sequential execution on the calling domain:
    no domain is spawned and neither hook is invoked, so the
    degenerate case is bit-for-bit the pre-pool code path.

    With [jobs > 1], [min jobs (Array.length input)] worker domains
    are spawned.  [wrap_worker w body] runs {e inside} worker [w]'s
    domain around its whole task loop and must call [body] exactly
    once — the seam where callers install per-domain setup/teardown
    (metrics snapshots, trace spans).  [on_stats] receives one record
    per spawned worker after the join.

    If any [f] application raises, the remaining tasks are abandoned,
    every domain is joined (the pool never wedges), and the first
    captured exception is re-raised — with its backtrace — in the
    calling domain.  [f] must be safe to run concurrently with
    itself.

    This is [stream] over the array with [min jobs n] workers and a
    window of the whole input ([capacity = n]): the input is already in
    memory, so there is nothing for backpressure to bound. *)

val stream :
  ?wrap_worker:(int -> (unit -> unit) -> unit) ->
  ?on_stats:(worker_stats list -> unit) ->
  ?capacity:int ->
  jobs:int ->
  ('a -> 'b) ->
  producer:(unit -> 'a option) ->
  consumer:(int -> 'b -> unit) ->
  unit ->
  int
(** [stream ~jobs f ~producer ~consumer ()] is the bounded-queue
    submission seam: tasks are pulled one at a time from [producer]
    (until it returns [None]), evaluated by [f] on the worker domains,
    and handed to [consumer seq result] in {e strict submission order}
    ([seq] counts 0, 1, 2, ...).  Returns the number of tasks consumed.

    At most [capacity] tasks (default [4 * jobs], never below [jobs])
    are in flight between [producer] and [consumer]: when the window is
    full the coordinator stops producing until the next in-order result
    has been consumed — backpressure, so a stream larger than memory is
    never materialised.  [producer] and [consumer] both run on the
    calling domain and need no synchronisation of their own; ordering
    makes a parallel stream observationally the sequential loop.

    Worker [k] is spawned when task [k] is submitted, so a stream of
    [n < jobs] tasks starts only [n] domains, and [on_stats] receives
    one record per spawned worker.

    With [jobs <= 1] this degenerates to an in-line
    produce/apply/consume loop on the calling domain: no domains, no
    hooks — bit-for-bit the sequential code path, mirroring [map].

    Failure semantics match [map]: the first exception from [f] (or
    from [producer]/[consumer]) abandons the remaining work, every
    domain is joined, and the exception is re-raised with its
    backtrace.  [wrap_worker] and [on_stats] are the same seams as in
    [map]. *)
