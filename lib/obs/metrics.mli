(** Metrics registry: named counters, gauges, and log-scale histograms.

    Handles are created once (typically at module initialisation) and
    updated on hot paths with a single mutable write — cheap enough to
    leave permanently enabled.  [snapshot] captures an immutable view;
    snapshots [merge] associatively so per-shard registries can be
    combined.

    Handles may be shared across domains, but the cells they update are
    domain-local: each domain accumulates into its own storage, and
    [snapshot]/[reset] act on the calling domain's cells only.  A worker
    domain therefore snapshots its own totals before exiting and the
    coordinator folds them back in with [absorb] — updates never contend
    and the merged totals are independent of scheduling. *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit

  val set_max : t -> float -> unit
  (** Keep the running maximum (e.g. a high-water mark). *)

  val value : t -> float
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  (** Values [<= 0.] land in a dedicated zero bucket. *)

  val count : t -> int
  val sum : t -> float

  val quantile : t -> float -> float
  (** Approximate quantile (log-scale buckets, ~2.5% relative error).
      [quantile t 0.5] is the median.  Returns [nan] when empty. *)
end

type registry

val create : unit -> registry

val default : registry
(** The process-wide registry all built-in instrumentation uses. *)

val counter : ?registry:registry -> string -> Counter.t
val gauge : ?registry:registry -> string -> Gauge.t
val histogram : ?registry:registry -> string -> Histogram.t
(** Find-or-create by name.  Raises [Invalid_argument] if the name is
    already registered as a different metric kind. *)

val reset : ?registry:registry -> unit -> unit
(** Zero every metric of the calling domain (handles stay valid). *)

module Snapshot : sig
  type t

  val empty : t

  val merge : t -> t -> t
  (** Associative and commutative: counters add, gauges keep the max,
      histograms pool their buckets.  Raises [Invalid_argument] when
      the same name has different kinds in the two snapshots. *)

  val counter : t -> string -> int option

  val quantile : t -> string -> float -> float option
  (** Quantile of a histogram entry; [None] if absent or empty. *)

  val to_json : t -> Json.t
end

val snapshot : ?registry:registry -> unit -> Snapshot.t
(** The calling domain's current totals, sorted by name. *)

val absorb : ?registry:registry -> Snapshot.t -> unit
(** Fold a snapshot (typically taken on a worker domain) into the
    calling domain's cells, with [merge] semantics: counters add,
    gauges keep the max, histograms pool their buckets.  Registers any
    names not yet known to the registry. *)

val write_file : ?manifest:Json.t -> string -> Snapshot.t -> unit
(** Write [{"manifest": ..., "metrics": ...}] to a file (atomic enough
    for our purposes: single [open]/[write]/[close]). *)
