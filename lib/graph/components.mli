(** Connected components of the (possibly damaged) network.

    Large-scale failures can partition the network (Sec. IV-D); whether
    a destination is reachable from a recovery initiator is a question
    about the component structure of the damaged graph. *)

type t

val compute : View.t -> t
(** Components among the nodes and links live in the view. *)

val count : t -> int
(** Number of components among live nodes. *)

val id_of : t -> Graph.node -> int
(** Component id of a node ([-1] for a masked-out node). *)

val same : t -> Graph.node -> Graph.node -> bool
(** Whether two nodes are live and in the same component. *)

val sizes : t -> int array
(** Size of each component, indexed by component id. *)

val is_connected : Graph.t -> bool
(** Whether the undamaged graph is connected. *)
