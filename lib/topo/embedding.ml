open Rtr_geom

type t = Point.t array

let default_width = 2000.0
let default_height = 2000.0

let of_points pts = Array.copy pts

let random rng ~n ?(width = default_width) ?(height = default_height) () =
  let pts = Array.make n Point.origin in
  let too_close p i =
    let rec loop j = j < i && (Point.dist pts.(j) p < 1e-6 || loop (j + 1)) in
    loop 0
  in
  for i = 0 to n - 1 do
    let rec draw attempts =
      let p =
        Point.make (Rtr_util.Rng.float rng width) (Rtr_util.Rng.float rng height)
      in
      if too_close p i && attempts < 1000 then draw (attempts + 1) else p
    in
    pts.(i) <- draw 0
  done;
  pts

let size t = Array.length t
let position t v = t.(v)

let segment t g id =
  let u, v = Rtr_graph.Graph.endpoints g id in
  Segment.make t.(u) t.(v)

let direction t ~from_ ~to_ = Point.sub t.(to_) t.(from_)
