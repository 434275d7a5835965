(** A failure view: the graph an algorithm is allowed to see.

    RTR's Theorem 2 is a statement about the recovery initiator's {e
    view} — the pre-failure topology minus the failed elements it has
    learnt about.  Everything that traverses a possibly-damaged graph
    in this library does so through a value of this type: an immutable
    [Graph.t] plus bitset liveness masks over node and link ids.

    Masks are int-array bitsets (32 bits per word), so membership is a
    shift-and-mask ([O(1)], no closure call) and the three
    constructors ([full], [of_failed], [remove_links]) cost O(words).
    Views never mutate; deriving one copies only the changed mask.

    Views are built from failed-element lists ([of_failed]) or derived
    from [full].  The traversals over views are checked against
    [Rtr_check.Reference], a textbook Dijkstra that reads a view only
    through [node_ok]/[link_ok]. *)

type t

val graph : t -> Graph.t

(** {1 Construction} *)

val full : Graph.t -> t
(** Everything usable.  O(words). *)

val of_failed : Graph.t -> nodes:Graph.node list -> links:Graph.link_id list -> t
(** Everything usable except the listed elements.  Unlike
    [Damage.of_failed] this performs no incident-link closure: the
    masks are exactly what the caller gives. *)

(** {1 Derivation} *)

val remove_links : t -> Graph.link_id list -> t
(** A view with the given links additionally masked out.  O(words +
    length). *)

(** {1 Membership} *)

val node_ok : t -> Graph.node -> bool
val link_ok : t -> Graph.link_id -> bool

(** {1 Masked adjacency}

    The neighbour iteration of the BFS-style traversals ([Bfs],
    [Components]): only pairs whose link {e and} endpoint are both live
    are yielded, in the same (ascending neighbour id) order as
    [Graph.iter_neighbors].  [Dijkstra] reads the raw masks below
    instead. *)

val iter_neighbors : t -> Graph.node -> (Graph.node -> Graph.link_id -> unit) -> unit

(** {1 Raw masks}

    The bitsets behind [node_ok] and [link_ok]: id [i] is live iff bit
    [i land 31] of word [i lsr 5] is set.  Physically shared with the
    view — callers must not mutate them.  Exposed so [Dijkstra]'s
    relaxation loop can test liveness inline, without a call per arc. *)

val node_mask : t -> int array
val link_mask : t -> int array

val equal : t -> t -> bool
(** Same graph (physically) and identical masks. *)

val pp : Format.formatter -> t -> unit
(** [view(live/total nodes, live/total links live)]. *)
