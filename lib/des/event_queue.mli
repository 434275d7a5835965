(** Future-event set for the discrete-event simulator.

    A min-heap keyed by simulation time, with insertion order breaking
    ties so that runs are deterministic. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val add : 'a t -> time:float -> 'a -> unit
(** Raises [Invalid_argument] on NaN or negative time. *)

val pop : 'a t -> (float * 'a) option
(** Earliest event; among equal times, the one added first. *)
