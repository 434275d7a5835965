(** Minimal JSON tree, hand-rolled: the observability subsystem must not
    pull in a serialisation dependency.  Covers exactly what the sinks
    emit plus a parser so tests and [json_check] can validate output,
    and in-place readers on the parser's scanner for decoders that need
    no tree. *)

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
(** Strict parse of one JSON value (surrounding whitespace allowed):
    [read s value].  [Error msg] carries a byte offset.  A number is
    the longest run of [0-9 - + . e E] from its first character, read
    as an [Int] if [int_of_string] takes it and as a [Float] otherwise.
    The scan reads [s] in place and allocates only the returned tree:
    strings without escapes are one [String.sub], and a plain decimal
    integer of at most 18 digits (with an optional [-]) is accumulated
    without one. *)

(** {2 Reading in place}

    A [cursor] is a position in a string that {!read} scans once, left
    to right.  Each reader below skips leading whitespace, consumes one
    value and leaves the cursor just after it; they are the scanner
    [parse] runs on, so a decoder written with them accepts exactly the
    bytes [parse] accepts, decodes numbers and strings as [parse] does,
    and builds no tree.  A reader that meets a malformed value or a
    value of another type raises an error that {!read} returns as
    [Error "offset N: ..."]. *)

type cursor

val read : string -> (cursor -> 'a) -> ('a, string) result
(** [read s f] runs [f] on a cursor at the start of [s], then requires
    only whitespace to follow. *)

val fail : cursor -> string -> 'a
(** Abandon the read with [msg] at the cursor's offset: how a decoder
    rejects a well-formed value it cannot use. *)

val value : cursor -> t
(** Any value, as a tree. *)

val skip : cursor -> unit
(** Any value, validated as {!value} validates it, then dropped. *)

val int : cursor -> int
(** A number that [parse] reads as an [Int]; a [Float] such as [1.0],
    [1e0] or a 19-digit literal past [max_int] is an error. *)

val int_or_null : cursor -> int option
(** [null], or an {!int}. *)

val bool : cursor -> bool

val int_list : cursor -> int list
(** An array of {!int}s. *)

val items : cursor -> (cursor -> 'a) -> 'a list
(** An array, each item read by the given reader, in order. *)

val tuple : cursor -> (cursor -> 'a) -> 'a
(** A fixed-arity array: [\[], then the reader (which reads the first
    item directly and each later one through {!next}), then [\]]. *)

val next : (cursor -> 'a) -> cursor -> 'a
(** [next read] reads a [,] and then the item [read] reads. *)

val members : cursor -> (string -> cursor -> unit) -> unit
(** An object: [read key c] is called for each member in order, keys
    decoded as [parse] decodes them, and must consume the member's
    value (with {!skip} if it has no use for it).  Repeated keys are
    all passed on; a decoder that wants [member]'s first-wins rule
    skips the repeats. *)

val member : string -> t -> t option
(** [member k (Obj ...)] looks up key [k]; [None] on other variants. *)
