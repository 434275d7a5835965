(** Paths: sequences of adjacent nodes.

    Routing paths, phase-1 forwarding walks and recovery paths are all
    values of this type.  A path is stored as the node sequence from
    source to destination; the empty list is not a path, a singleton is
    the trivial path from a node to itself. *)

type t

val of_nodes : Graph.node list -> t
(** Raises [Invalid_argument] on an empty list.  Adjacency is not
    checked here (walks produced by the protocols are checked against a
    graph with [links] or [is_valid]). *)

val nodes : t -> Graph.node list

val source : t -> Graph.node
val destination : t -> Graph.node

val hops : t -> int
(** Number of links traversed, [0] for a trivial path. *)

val links : Graph.t -> t -> Graph.link_id list
(** The links along the path.  Raises [Invalid_argument] if two
    consecutive nodes are not adjacent in the graph. *)

val cost : Graph.t -> t -> int
(** Sum of directional link costs along the path. *)

val is_valid : View.t -> t -> bool
(** Whether every consecutive pair is adjacent and every node/link is
    live in the view (the source must be live too). *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** [v7 -> v6 -> v11] style, as in the paper. *)

val to_string : t -> string
