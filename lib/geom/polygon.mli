(** Simple polygons: failure areas of arbitrary shape.

    The paper stresses that RTR makes no assumption on the shape of the
    failure area (only the simulation uses discs, "to simplify").  This
    module supplies polygonal areas so that tests and examples can
    exercise non-circular failures: containment by ray casting and
    segment intersection against the boundary and interior. *)

type t
(** A simple polygon given by its vertices in order (either winding).
    The boundary is closed implicitly (last vertex connects to the
    first). *)

val make : Point.t list -> t
(** Raises [Invalid_argument] on fewer than 3 vertices. *)

val vertices : t -> Point.t list

val edges : t -> Segment.t list

val contains : t -> Point.t -> bool
(** Point-in-polygon by ray casting; points on the boundary count as
    inside. *)

val intersects_segment : t -> Segment.t -> bool
(** Whether the segment touches the polygon: an endpoint inside, or a
    crossing with any boundary edge. *)

val bounding_box : t -> Point.t * Point.t
(** [(lo, hi)] corners of the axis-aligned bounding box. *)

val pp : Format.formatter -> t -> unit
