type t = { x : float; y : float }

let make x y = { x; y }
let origin = { x = 0.0; y = 0.0 }
let add a b = { x = a.x +. b.x; y = a.y +. b.y }
let sub a b = { x = a.x -. b.x; y = a.y -. b.y }
let scale k v = { x = k *. v.x; y = k *. v.y }
let dot a b = (a.x *. b.x) +. (a.y *. b.y)
let cross a b = (a.x *. b.y) -. (a.y *. b.x)
let norm2 v = dot v v
let dist2 a b = norm2 (sub a b)
let dist a b = sqrt (dist2 a b)
let midpoint a b = { x = (a.x +. b.x) /. 2.0; y = (a.y +. b.y) /. 2.0 }
let lerp a b t = add a (scale t (sub b a))

let equal ?(eps = 1e-9) a b =
  Float.abs (a.x -. b.x) <= eps && Float.abs (a.y -. b.y) <= eps

let compare a b =
  let c = Float.compare a.x b.x in
  if c <> 0 then c else Float.compare a.y b.y

let pp ppf { x; y } = Format.fprintf ppf "(%g, %g)" x y
let to_string p = Format.asprintf "%a" pp p
