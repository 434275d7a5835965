(** Geographic embedding: router coordinates.

    The paper places each topology's routers uniformly at random in a
    2000x2000 area and assumes every router knows all coordinates
    (Sec. II-A) — RTR's right-hand rule and the cross-link constraint
    both read this embedding. *)

open Rtr_geom

type t

val default_width : float
(** 2000., the paper's simulation area side. *)

val default_height : float

val of_points : Point.t array -> t

val random :
  Rtr_util.Rng.t -> n:int -> ?width:float -> ?height:float -> unit -> t
(** [n] points uniform in [0,width) x [0,height).  Re-draws (up to a
    bound) any point that lands within 1e-6 of an existing one so that
    link directions are always well defined. *)

val size : t -> int

val position : t -> Rtr_graph.Graph.node -> Point.t

val segment : t -> Rtr_graph.Graph.t -> Rtr_graph.Graph.link_id -> Segment.t
(** The straight-line embedding of a link. *)

val direction :
  t -> from_:Rtr_graph.Graph.node -> to_:Rtr_graph.Graph.node -> Point.t
(** Unit-free direction vector between two routers. *)
