(** Minimal priority queue keyed by [(priority, tag)] pairs of ints,
    with two interchangeable disciplines behind one interface.

    The default is a binary min-heap, valid for any priorities.  When
    the priorities are known to be bounded small integers — shortest
    paths on a graph with integer link costs, where every distance is
    at most [max edge cost * (n - 1)] — [configure] switches the queue
    to Dial's algorithm: one bucket per priority, pops scanning a
    monotone cursor, every operation O(1) plus a scan bounded by the
    bucket width.  Buckets are kept sorted by tag, so both disciplines
    pop in exactly the same lexicographic [(prio, tag)] order and the
    routing tables (and every experiment) stay bit-identical whichever
    is selected.

    Decrease-key is handled by lazy deletion in either mode: re-insert
    with the better priority and have the caller skip stale pops (the
    classic idiom for dense relaxation workloads; see [Dijkstra]).  The
    [tag] breaks priority ties deterministically. *)

type t

val create : unit -> t
(** A queue in binary-heap mode. *)

val configure : t -> bound:int -> unit
(** Re-select the discipline of an existing (empty or no longer
    needed) queue for a new priority bound, clearing it first, and
    count the choice in [pqueue.dial_selected] or
    [pqueue.heap_selected].  Every [Dijkstra.spt] run, owned or on a
    workspace, configures its queue here, so the two counters count
    every SPT run. *)

val max_dial_bound : int
(** Largest priority bound for which dial mode is selected; above it
    the bucket array would dominate memory and the heap wins. *)

val dial_bound_for : max_cost:int -> n_nodes:int -> int
(** The shortest-path priority bound [max_cost * (n_nodes - 1)], or
    [-1] (forcing heap mode) when that product would exceed
    [max_dial_bound]. *)

val uses_dial : t -> bool
(** Whether the queue is currently in dial mode. *)

val is_empty : t -> bool

val length : t -> int

val push : t -> prio:int -> tag:int -> unit
(** In dial mode, raises [Invalid_argument] if [prio] lies outside
    [0, bound] — the monotone-bound contract every Dijkstra-style
    caller must respect. *)

val pop : t -> (int * int) option
(** Smallest [(prio, tag)] in lexicographic order, or [None] when
    empty. *)

val clear : t -> unit
(** Empty the queue; O(buckets touched since the last clear) in dial
    mode, O(1) in heap mode. *)
