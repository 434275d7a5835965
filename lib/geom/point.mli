(** Points and vectors in the Euclidean plane.

    Every geometric object in the simulator lives in a 2-D plane (the
    paper embeds routers in a 2000x2000 area).  A [Point.t] doubles as a
    position and as a displacement vector; the vector-flavoured
    operations ([add], [sub], [dot], [cross], ...) are what the
    right-hand-rule sweep and the intersection predicates are built on. *)

type t = { x : float; y : float }

val make : float -> float -> t
(** [make x y] is the point (x, y). *)

val origin : t
(** The point (0, 0). *)

val add : t -> t -> t
(** Componentwise sum (vector addition). *)

val sub : t -> t -> t
(** [sub a b] is the vector from [b] to [a], i.e. [a - b]. *)

val scale : float -> t -> t
(** [scale k v] multiplies both components by [k]. *)

val dot : t -> t -> float
(** Dot product. *)

val cross : t -> t -> float
(** 2-D cross product (z-component of the 3-D cross product).  Positive
    when the second vector lies counterclockwise of the first. *)

val norm2 : t -> float
(** Squared Euclidean length (avoids the square root). *)

val dist : t -> t -> float
(** Euclidean distance between two points. *)

val midpoint : t -> t -> t
(** The point halfway between the arguments. *)

val lerp : t -> t -> float -> t
(** [lerp a b t] is [a + t*(b - a)]; [t = 0] gives [a], [t = 1] gives
    [b]. *)

val equal : ?eps:float -> t -> t -> bool
(** Componentwise equality up to [eps] (default [1e-9]). *)

val compare : t -> t -> int
(** Lexicographic order on (x, y); a total order for use in sets. *)

val pp : Format.formatter -> t -> unit
(** Prints as [(x, y)]. *)

val to_string : t -> string
