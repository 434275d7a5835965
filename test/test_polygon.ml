open Rtr_geom

let square =
  Polygon.make
    [
      Point.make 0.0 0.0;
      Point.make 4.0 0.0;
      Point.make 4.0 4.0;
      Point.make 0.0 4.0;
    ]

let test_make_validation () =
  Alcotest.check_raises "two points"
    (Invalid_argument "Polygon.make: need >= 3 vertices") (fun () ->
      ignore (Polygon.make [ Point.origin; Point.make 1.0 1.0 ]))

let test_contains_square () =
  Alcotest.(check bool) "center" true (Polygon.contains square (Point.make 2.0 2.0));
  Alcotest.(check bool) "outside" false (Polygon.contains square (Point.make 5.0 2.0));
  Alcotest.(check bool) "on edge" true (Polygon.contains square (Point.make 0.0 2.0));
  Alcotest.(check bool) "vertex" true (Polygon.contains square (Point.make 0.0 0.0))

let concave =
  (* A "U" shape: the notch between the arms is outside. *)
  Polygon.make
    [
      Point.make 0.0 0.0;
      Point.make 6.0 0.0;
      Point.make 6.0 4.0;
      Point.make 4.0 4.0;
      Point.make 4.0 1.0;
      Point.make 2.0 1.0;
      Point.make 2.0 4.0;
      Point.make 0.0 4.0;
    ]

let test_contains_concave () =
  Alcotest.(check bool) "left arm" true (Polygon.contains concave (Point.make 1.0 3.0));
  Alcotest.(check bool) "notch" false (Polygon.contains concave (Point.make 3.0 3.0));
  Alcotest.(check bool) "base" true (Polygon.contains concave (Point.make 3.0 0.5))

let test_segment_intersection () =
  let crossing = Segment.make (Point.make (-1.0) 2.0) (Point.make 5.0 2.0) in
  Alcotest.(check bool) "crossing" true (Polygon.intersects_segment square crossing);
  let inside = Segment.make (Point.make 1.0 1.0) (Point.make 2.0 2.0) in
  Alcotest.(check bool) "fully inside" true (Polygon.intersects_segment square inside);
  let outside = Segment.make (Point.make 5.0 5.0) (Point.make 9.0 5.0) in
  Alcotest.(check bool) "outside" false (Polygon.intersects_segment square outside)

let test_bounding_box () =
  let lo, hi = Polygon.bounding_box concave in
  Alcotest.(check bool) "lo" true (Point.equal lo (Point.make 0.0 0.0));
  Alcotest.(check bool) "hi" true (Point.equal hi (Point.make 6.0 4.0))

(* A regular polygon inscribed in a circle: "almost a disc" failure
   areas with corners, for this suite, the edge cases and the SVG
   tests. *)
let regular ~center ~radius ~sides =
  let pt i =
    let a = 2.0 *. Angle.pi *. float_of_int i /. float_of_int sides in
    Point.add center (Point.make (radius *. cos a) (radius *. sin a))
  in
  Polygon.make (List.init sides pt)

let test_regular () =
  let hex = regular ~center:(Point.make 0.0 0.0) ~radius:2.0 ~sides:6 in
  Alcotest.(check int) "six vertices" 6 (List.length (Polygon.vertices hex));
  Alcotest.(check bool) "center inside" true (Polygon.contains hex Point.origin);
  Alcotest.(check bool)
    "radius point is a vertex" true
    (Polygon.contains hex (Point.make 2.0 0.0))

let regular_contains_scaled =
  QCheck.Test.make ~name:"regular polygon contains scaled-down vertices"
    ~count:200
    QCheck.(pair (int_range 3 12) (float_range 0.1 0.9))
    (fun (sides, k) ->
      let center = Point.make 5.0 5.0 in
      let poly = regular ~center ~radius:3.0 ~sides in
      List.for_all
        (fun v ->
          Polygon.contains poly (Point.lerp center v k))
        (Polygon.vertices poly))

let suite =
  [
    Alcotest.test_case "make validation" `Quick test_make_validation;
    Alcotest.test_case "contains square" `Quick test_contains_square;
    Alcotest.test_case "contains concave" `Quick test_contains_concave;
    Alcotest.test_case "segment intersection" `Quick test_segment_intersection;
    Alcotest.test_case "bounding box" `Quick test_bounding_box;
    Alcotest.test_case "regular" `Quick test_regular;
    QCheck_alcotest.to_alcotest regular_contains_scaled;
  ]
