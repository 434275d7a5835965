open Rtr_geom

let feq = Alcotest.float 1e-9

let test_make_access () =
  let p = Point.make 3.0 4.0 in
  Alcotest.check feq "x" 3.0 p.Point.x;
  Alcotest.check feq "y" 4.0 p.Point.y

let test_add_sub () =
  let a = Point.make 1.0 2.0 and b = Point.make 3.0 5.0 in
  Alcotest.check feq "add x" 4.0 (Point.add a b).Point.x;
  Alcotest.check feq "add y" 7.0 (Point.add a b).Point.y;
  Alcotest.check feq "sub x" 2.0 (Point.sub b a).Point.x;
  Alcotest.check feq "sub y" 3.0 (Point.sub b a).Point.y

let test_norm_dist () =
  Alcotest.check feq "norm2" 25.0 (Point.norm2 (Point.make 3.0 4.0));
  Alcotest.check feq "dist 3-4-5" 5.0
    (Point.dist (Point.make 1.0 1.0) (Point.make 4.0 5.0))

let test_dot_cross () =
  let a = Point.make 1.0 0.0 and b = Point.make 0.0 1.0 in
  Alcotest.check feq "orthogonal dot" 0.0 (Point.dot a b);
  Alcotest.check feq "cross ccw positive" 1.0 (Point.cross a b);
  Alcotest.check feq "cross cw negative" (-1.0) (Point.cross b a)

let test_midpoint_lerp () =
  let a = Point.make 0.0 0.0 and b = Point.make 10.0 20.0 in
  Alcotest.(check bool)
    "midpoint" true
    (Point.equal (Point.midpoint a b) (Point.make 5.0 10.0));
  Alcotest.(check bool) "lerp 0" true (Point.equal (Point.lerp a b 0.0) a);
  Alcotest.(check bool) "lerp 1" true (Point.equal (Point.lerp a b 1.0) b);
  Alcotest.(check bool)
    "lerp quarter" true
    (Point.equal (Point.lerp a b 0.25) (Point.make 2.5 5.0))

let test_equal_eps () =
  let a = Point.make 1.0 1.0 in
  Alcotest.(check bool)
    "within eps" true
    (Point.equal ~eps:1e-3 a (Point.make 1.0005 1.0));
  Alcotest.(check bool)
    "outside eps" false
    (Point.equal ~eps:1e-6 a (Point.make 1.0005 1.0))

let test_compare_total_order () =
  let pts =
    [ Point.make 1.0 2.0; Point.make 0.0 9.0; Point.make 1.0 0.0 ]
  in
  let sorted = List.sort Point.compare pts in
  Alcotest.(check bool)
    "lexicographic" true
    (sorted
    = [ Point.make 0.0 9.0; Point.make 1.0 0.0; Point.make 1.0 2.0 ])

let scale_distributes =
  QCheck.Test.make ~name:"scale distributes over add" ~count:200
    QCheck.(triple (float_bound_exclusive 100.0) (pair float float) (pair float float))
    (fun (k, (ax, ay), (bx, by)) ->
      let a = Point.make ax ay and b = Point.make bx by in
      Point.equal ~eps:1e-6
        (Point.scale k (Point.add a b))
        (Point.add (Point.scale k a) (Point.scale k b)))

let cross_antisymmetric =
  QCheck.Test.make ~name:"cross is antisymmetric" ~count:200
    QCheck.(pair (pair float float) (pair float float))
    (fun ((ax, ay), (bx, by)) ->
      let a = Point.make ax ay and b = Point.make bx by in
      let c1 = Point.cross a b and c2 = Point.cross b a in
      Float.is_nan c1 || Float.abs (c1 +. c2) <= 1e-6 *. Float.max 1.0 (Float.abs c1))

let suite =
  [
    Alcotest.test_case "make/access" `Quick test_make_access;
    Alcotest.test_case "add/sub" `Quick test_add_sub;
    Alcotest.test_case "norm/dist" `Quick test_norm_dist;
    Alcotest.test_case "dot/cross" `Quick test_dot_cross;
    Alcotest.test_case "midpoint/lerp" `Quick test_midpoint_lerp;
    Alcotest.test_case "equal eps" `Quick test_equal_eps;
    Alcotest.test_case "compare total order" `Quick test_compare_total_order;
    QCheck_alcotest.to_alcotest scale_distributes;
    QCheck_alcotest.to_alcotest cross_antisymmetric;
  ]
