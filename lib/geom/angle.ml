let pi = 4.0 *. atan 1.0
let two_pi = 2.0 *. pi

let of_vec_xy ~x ~y =
  if (x *. x) +. (y *. y) = 0.0 then invalid_arg "Angle.of_vec: null vector";
  atan2 y x

let of_vec (v : Point.t) = of_vec_xy ~x:v.Point.x ~y:v.Point.y

let normalize a =
  let a = Float.rem a two_pi in
  if a < 0.0 then a +. two_pi else a

(* Angles within [eps_zero] of a full turn collapse to "no rotation",
   which the sweep must treat as a full turn: otherwise floating-point
   noise could make a node re-select the direction it came from before
   trying every other neighbour. *)
let eps_zero = 1e-12

(* Raw-angle forms: the vector forms below delegate here, so hot loops
   that hoist [of_vec] of a fixed reference compute bit-identical
   rotations. *)
let ccw_from_angle ~reference a =
  let a = normalize (a -. reference) in
  if a <= eps_zero then two_pi else a

let cw_from_angle ~reference a =
  let a = ccw_from_angle ~reference a in
  if a >= two_pi -. eps_zero then a else two_pi -. a

let ccw_from ~reference v =
  ccw_from_angle ~reference:(of_vec reference) (of_vec v)

let cw_from ~reference v = cw_from_angle ~reference:(of_vec reference) (of_vec v)
