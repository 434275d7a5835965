(** Angles and the counterclockwise sweep used by RTR's phase 1.

    The right-hand rule of the paper (Sec. III-B) takes the link to the
    previous hop (or to the unreachable default next hop) as a sweeping
    line and rotates it {e counterclockwise} until it reaches a live
    neighbour.  Concretely that means: among candidate neighbour
    directions, pick the one with the smallest strictly-positive
    counterclockwise angle from the reference direction, where an angle
    of zero is treated as a full turn so that backtracking to the
    previous hop is the last resort. *)

val pi : float

val of_vec : Point.t -> float
(** Polar angle of a vector, in (-pi, pi], via [atan2]. *)

val of_vec_xy : x:float -> y:float -> float
(** [of_vec] on raw components, for hot loops that subtract embedded
    points without materialising a vector.  Identical float pipeline
    (and the same [Invalid_argument] on a null vector). *)

val ccw_from_angle : reference:float -> float -> float
(** [ccw_from] on precomputed polar angles: [ccw_from ~reference v] =
    [ccw_from_angle ~reference:(of_vec reference) (of_vec v)]
    definitionally, so hoisting the reference angle out of a scan over
    candidates changes nothing bit-wise. *)

val cw_from_angle : reference:float -> float -> float

val ccw_from : reference:Point.t -> Point.t -> float
(** [ccw_from ~reference v] is the counterclockwise rotation, in
    (0, 2*pi], that carries the direction of [reference] onto the
    direction of [v].  A zero rotation is reported as [2*pi]: in the
    sweep, the direction we start from is the one we select last.
    Raises [Invalid_argument] if either vector is (numerically) null. *)

val cw_from : reference:Point.t -> Point.t -> float
(** Clockwise counterpart of [ccw_from], in (0, 2*pi], zero again
    reported as a full turn — the mirror sweep used by the
    bidirectional-walk extension. *)
