(** The [rmap/1] artifact: precomputed recovery maps as one flat binary
    blob, mmap-friendly and allocation-free to read.

    Layout (all integers little-endian int32, sections 4-aligned):

    {v
    offset 0   magic "rmap/1\0\0" (8 bytes)
           8   n_nodes | n_links | n_scenarios | n_cases
          24   sig_pool_len (bytes) | path_pool_len (entries)
          32   name_len | total_len
          40   topology name, zero-padded to 4 bytes
    index      n_scenarios x 16B: sig_off sig_len case_off case_count
               (sorted by signature bytes -- binary-search me)
    sig pool   sig_pool_len bytes of concatenated signatures, padded
    cases      n_cases x 32B: initiator trigger dst kind cost
               true_cost path_off path_len
    path pool  path_pool_len x 4B node ids
    v}

    A record is addressed by its index {e slot}; a case by its global
    case index.  Accessors read straight out of the loaded bytes — no
    per-record or per-case allocation — so the lookup hot path is one
    binary search plus O(path) int reads.  [of_string] validates the
    whole artifact up front (magic, section bounds, index order, every
    offset and node id in range) and returns a descriptive [Error]
    rather than ever trusting a corrupt file. *)

type kind = Recovered | Unreachable | False_path

type case = {
  initiator : int;
  trigger : int;
  dst : int;
  kind : kind;
  cost : int;  (** emitted-route cost in the initiator's view; -1 when
                   unreachable *)
  true_cost : int;  (** shortest in the truly damaged graph; -1 when
                        irrecoverable *)
  path : int array;  (** the emitted source route, initiator first;
                         [[||]] when unreachable *)
}

val stretch : cost:int -> true_cost:int -> float option
(** [Some (cost / true_cost)] for a delivered recovery ([kind =
    Recovered]); the paper's stretch.  [None] when either side is
    absent or the true cost is zero. *)

(** {1 Writing} *)

val encode :
  topo_name:string ->
  n_nodes:int ->
  n_links:int ->
  (Signature.t * case array) list ->
  string
(** Serialise entries into one artifact.  Entries are sorted by
    signature here; cases keep their given order (the compiler hands
    them over ascending by (initiator, dst)).  Raises
    [Invalid_argument] on duplicate signatures or out-of-range
    fields. *)

(** {1 Loading} *)

type t

val of_string : string -> (t, string) result
val load : string -> (t, string) result
(** [load path] reads the file and validates like [of_string].  A
    missing or unreadable path, a directory included, is an [Error]
    with the system's message. *)

val topo_name : t -> string
val n_nodes : t -> int
val n_links : t -> int
val n_scenarios : t -> int
val n_cases : t -> int
val bytes : t -> int

(** {1 Lookup}

    [find] / [find_slot] bump [rmap.lookup_hits] / [rmap.lookup_misses]. *)

val find_slot : t -> Signature.t -> int
(** Binary search; [-1] on miss.  Allocation-free. *)

val find : t -> Signature.t -> int option

val signature : t -> int -> Signature.t
(** The slot's signature (copies the bytes out). *)

val case_range : t -> int -> int * int
(** [(first_global_case_index, count)] of a slot. *)

val case_index :
  t -> slot:int -> initiator:int -> trigger:int -> dst:int -> int
(** Global index of the slot's case for this query, [-1] if the query
    is not a recovery case of the scenario (binary search on
    (initiator, dst), then the stored trigger must match). *)

val case_initiator : t -> int -> int
val case_trigger : t -> int -> int
val case_dst : t -> int -> int
val case_kind : t -> int -> kind
val case_cost : t -> int -> int
val case_true_cost : t -> int -> int
val case_path_len : t -> int -> int
val case_path_node : t -> int -> int -> int
(** [case_path_node t i j] is the j-th node of case i's route. *)

val case_path : t -> int -> int array
(** Materialised copy of the route. *)

val to_case : t -> int -> case
(** Materialised copy of the whole case (tests, oracles). *)

val iter_slots : t -> (int -> unit) -> unit
