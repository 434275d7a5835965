(** Self-contained, serialisable failure scenarios for the fuzzer.

    A spec pins everything an oracle needs — router coordinates, the
    weighted edge list, and the failure — as plain data, so a scenario
    can be written to JSON, replayed bit-for-bit in another process,
    and shrunk structurally (drop a link, drop a node, halve the
    failure radius) without reference to the RNG that produced it.

    All floats in a spec are kept on a 0.01 grid so the JSON printer's
    [%.12g] rendering round-trips exactly. *)

module Graph = Rtr_graph.Graph

type failure =
  | Disc of { cx : float; cy : float; r : float }
      (** the paper's disc area, applied to the embedding *)
  | Explicit of { nodes : int list; links : (int * int) list }
      (** failed routers and failed links by endpoints (stable under
          shrinking, unlike link ids) *)

(** One timed failure event after the base failure.  Times are seconds
    from the base failure, on the 0.01 grid. *)
type episode =
  | Cascade of { at : float; failure : failure }
      (** a second area fails at [at] while recovery from the first is
          still in flight — the ground truth becomes the union *)
  | Flap of { at : float; up_at : float; links : (int * int) list }
      (** the links go down at [at] and their repair timer brings them
          back at [up_at]; with [at = 0.] this marks part of the base
          failure itself as transient.  Repairs never resurrect links
          incident to failed routers.  Degenerate windows
          ([up_at <= at]) are ignored. *)
  | Move of { at : float; cx : float; cy : float; r : float }
      (** the failure disc is re-sampled at a new position: elements it
          left recover, elements it reached fail — a storm tracking a
          path across the plane *)

type t = {
  name : string;
  n : int;
  coords : (float * float) array;  (** one (x, y) per node *)
  edges : (int * int * int * int) list;  (** u, v, c_uv, c_vu *)
  failure : failure;
  episodes : episode list;  (** [[]] = the static single-episode case *)
}

val equal : t -> t -> bool

val grid : float -> float
(** Round to the 0.01 grid all spec floats live on. *)

val build : t -> Rtr_topo.Topology.t * Rtr_failure.Damage.t
(** Materialise the spec's base failure.  Deterministic; crossings are
    recomputed from the stored embedding. *)

val timeline : t -> Rtr_topo.Topology.t * (float * Rtr_failure.Damage.t) list
(** The ground-truth damage as a function of time: [(0., base damage)]
    first, then one epoch per episode event in time order (episode
    order breaks ties).  Events that leave the damage unchanged produce
    no epoch, so a static spec has exactly one. *)

val generate : Rtr_util.Rng.t -> name:string -> t
(** A random small topology (6-24 routers) with a random disc failure,
    re-drawn (bounded) until the damage creates at least one recovery
    initiator.  Deterministic in the RNG state. *)

val generate_episodes :
  Rtr_util.Rng.t ->
  kind:[ `Cascading | `Transient | `Moving ] ->
  name:string ->
  t
(** [generate] plus an episode timeline of the given kind, re-drawn
    (bounded) until at least one episode event changes the ground
    truth. *)

(** {1 Shrinking moves}

    Each returns [None] when the move does not apply (too small, wrong
    failure kind). *)

val drop_link : t -> int -> t option
(** Remove the i-th edge of [edges] (0-based). *)

val drop_node : t -> Graph.node -> t option
(** Remove a node and its incident edges; remaining nodes are densely
    renumbered and an [Explicit] failure is remapped with them. *)

val halve_radius : t -> t option
(** Halve a [Disc] failure's radius (floor 1.0). *)

val drop_episode : t -> int -> t option
(** Remove the i-th episode (0-based). *)

val shorten_timer : t -> int -> t option
(** Halve the i-th episode's timer: a flap's repair window, a cascade's
    or move's onset time (floor one 0.01 grid step). *)

val merge_episodes : t -> int -> t option
(** Merge episodes i and i+1 into one when the pair collapses
    naturally: explicit cascades union their failures, flaps union
    windows and links, moves drop the intermediate disc sample. *)

(** {1 JSON} *)

val to_json : t -> Rtr_obs.Json.t
val of_json : Rtr_obs.Json.t -> (t, string) result
(** [Error] on malformed JSON and on any spec {!build} would raise on:
    [n <= 0], a node id outside [0, n) in an edge, an explicit failure
    (base or cascade) or a flap, and self loops, duplicate edges or
    nonpositive costs. *)
