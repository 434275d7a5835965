(** Minimal priority queue of non-negative int tags keyed by int
    priorities, with two interchangeable disciplines behind one
    interface.

    The default is a binary min-heap, valid for any priorities.  When
    the priorities are known to be bounded small integers — shortest
    paths on a graph with integer link costs, where every distance is
    at most [max edge cost * (n - 1)] — [configure] switches the queue
    to Dial's algorithm: one bucket per priority, pops scanning a
    monotone cursor, every operation O(1) plus a scan bounded by the
    bucket width.  Both disciplines pop priorities in non-decreasing
    order; among equal priorities the heap pops the smaller tag first
    and a Dial bucket pops last-in first-out.  [Dijkstra] depends on
    neither tie order: its canonical tree comes from its own tie rule.

    Decrease-key is handled by lazy deletion in either mode: re-insert
    with the better priority and have the caller skip stale pops (the
    classic idiom for dense relaxation workloads; see [Dijkstra]).

    [push] and [pop] count nothing and allocate nothing beyond amortised
    growth; a run reports its work through [publish]. *)

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

val push : t -> prio:int -> tag:int -> unit
(** [tag] must be non-negative.  In dial mode, raises
    [Invalid_argument] if [prio] lies outside [0, bound] — the
    monotone-bound contract every Dijkstra-style caller must
    respect. *)

val pop : t -> int
(** The tag of an entry with the smallest priority, removed, or [-1]
    when empty.  The priority itself is not returned: a Dijkstra caller
    reads it from its own distance labels. *)

val publish : t -> pushes:int -> pops:int -> unit
(** Add one run's tallies to [pqueue.push] and [pqueue.pop], and in
    dial mode also to [pqueue.dial_push] and [pqueue.dial_pop].  Called
    once per run so the hot loop pays no counter update per entry. *)

val clear : t -> unit
(** Empty the queue; O(buckets touched since the last clear) in dial
    mode, O(1) in heap mode. *)
