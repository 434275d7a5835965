type t = { pts : Point.t array }

let make pts =
  if List.length pts < 3 then invalid_arg "Polygon.make: need >= 3 vertices";
  { pts = Array.of_list pts }

let vertices { pts } = Array.to_list pts

let edges { pts } =
  let n = Array.length pts in
  List.init n (fun i -> Segment.make pts.(i) pts.((i + 1) mod n))

let on_boundary { pts } p =
  let n = Array.length pts in
  let rec loop i =
    if i >= n then false
    else
      let s = Segment.make pts.(i) pts.((i + 1) mod n) in
      (Segment.orientation s.Segment.a s.Segment.b p = 0
      && Segment.on_segment s p)
      || loop (i + 1)
  in
  loop 0

(* Ray casting along +x.  The half-open rule on the y-interval makes a
   vertex count for exactly one of its two incident edges. *)
let contains poly p =
  if on_boundary poly p then true
  else
    let { pts } = poly in
    let n = Array.length pts in
    let inside = ref false in
    for i = 0 to n - 1 do
      let a = pts.(i) and b = pts.((i + 1) mod n) in
      let ay = a.Point.y and by = b.Point.y in
      if ay > p.Point.y <> (by > p.Point.y) then begin
        let t = (p.Point.y -. ay) /. (by -. ay) in
        let x_cross = a.Point.x +. (t *. (b.Point.x -. a.Point.x)) in
        if p.Point.x < x_cross then inside := not !inside
      end
    done;
    !inside

let intersects_segment poly seg =
  contains poly seg.Segment.a
  || contains poly seg.Segment.b
  || List.exists (fun e -> Segment.intersects e seg) (edges poly)

let bounding_box { pts } =
  let xs = Array.map (fun p -> p.Point.x) pts in
  let ys = Array.map (fun p -> p.Point.y) pts in
  let min_of = Array.fold_left Float.min infinity in
  let max_of = Array.fold_left Float.max neg_infinity in
  (Point.make (min_of xs) (min_of ys), Point.make (max_of xs) (max_of ys))

let pp ppf { pts } =
  Format.fprintf ppf "polygon[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       Point.pp)
    (Array.to_list pts)
