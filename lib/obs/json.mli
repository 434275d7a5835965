(** Minimal JSON tree, hand-rolled: the observability subsystem must not
    pull in a serialisation dependency.  Covers exactly what the sinks
    emit plus a parser so tests and [json_check] can validate output. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Arr of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit

val to_string : t -> string
(** Compact (single-line) rendering.  Non-finite floats render as
    [null] so the output is always standard JSON. *)

val parse : string -> (t, string) result
(** Strict parse of one JSON value (surrounding whitespace allowed).
    [Error msg] carries a byte offset.  A number is the longest run of
    [0-9 - + . e E] from its first character, read as an [Int] if
    [int_of_string] takes it and as a [Float] otherwise.  The scan
    reads [s] in place and allocates only the returned tree: strings
    without escapes are one [String.sub], and a plain decimal integer
    of at most 18 digits (with an optional [-]) is accumulated without
    one. *)

val member : string -> t -> t option
(** [member k (Obj ...)] looks up key [k]; [None] on other variants. *)
