open Rtr_geom

let feq = Alcotest.float 1e-9
let two_pi = 2.0 *. Angle.pi

(* Rotations from a zero reference are the normalised angle, a zero
   rotation reported as a full turn. *)
let test_normalize () =
  let ccw = Angle.ccw_from_angle ~reference:0.0 in
  Alcotest.check feq "zero is a full turn" two_pi (ccw 0.0);
  Alcotest.check feq "two pi wraps" two_pi (ccw two_pi);
  Alcotest.check feq "negative wraps" (Angle.pi /. 2.0)
    (ccw (-3.0 *. Angle.pi /. 2.0));
  Alcotest.check feq "large" Angle.pi (ccw (5.0 *. Angle.pi))

let test_of_vec () =
  Alcotest.check feq "east" 0.0 (Angle.of_vec (Point.make 1.0 0.0));
  Alcotest.check feq "north" (Angle.pi /. 2.0)
    (Angle.of_vec (Point.make 0.0 1.0));
  Alcotest.check feq "west" Angle.pi (Angle.of_vec (Point.make (-1.0) 0.0));
  Alcotest.check_raises "null vector"
    (Invalid_argument "Angle.of_vec: null vector") (fun () ->
      ignore (Angle.of_vec Point.origin))

let test_ccw_quarter () =
  let east = Point.make 1.0 0.0 and north = Point.make 0.0 1.0 in
  Alcotest.check feq "east to north is quarter turn" (Angle.pi /. 2.0)
    (Angle.ccw_from ~reference:east north);
  Alcotest.check feq "north to east is three quarters"
    (3.0 *. Angle.pi /. 2.0)
    (Angle.ccw_from ~reference:north east)

let test_ccw_same_direction_full_turn () =
  let d = Point.make 2.0 3.0 in
  Alcotest.check feq "same direction counts as full turn" two_pi
    (Angle.ccw_from ~reference:d (Point.scale 5.0 d))

let ccw_positive =
  QCheck.Test.make ~name:"ccw_from is in (0, 2pi]" ~count:500
    QCheck.(
      pair
        (pair (float_range (-10.) 10.) (float_range (-10.) 10.))
        (pair (float_range (-10.) 10.) (float_range (-10.) 10.)))
    (fun ((ax, ay), (bx, by)) ->
      QCheck.assume (Float.abs ax +. Float.abs ay > 1e-6);
      QCheck.assume (Float.abs bx +. Float.abs by > 1e-6);
      let a = Angle.ccw_from ~reference:(Point.make ax ay) (Point.make bx by) in
      a > 0.0 && a <= two_pi)

let ccw_sums_to_full_turn =
  QCheck.Test.make ~name:"ccw(a,b) + ccw(b,a) is a full turn (generic case)"
    ~count:500
    QCheck.(
      pair
        (pair (float_range (-10.) 10.) (float_range (-10.) 10.))
        (pair (float_range (-10.) 10.) (float_range (-10.) 10.)))
    (fun ((ax, ay), (bx, by)) ->
      QCheck.assume (Float.abs ax +. Float.abs ay > 1e-6);
      QCheck.assume (Float.abs bx +. Float.abs by > 1e-6);
      let r = Point.make ax ay and v = Point.make bx by in
      let sum = Angle.ccw_from ~reference:r v +. Angle.ccw_from ~reference:v r in
      (* collinear pairs both report a full turn, so allow 2 or 4 pi *)
      Float.abs (sum -. two_pi) < 1e-6
      || Float.abs (sum -. (2.0 *. two_pi)) < 1e-6)

let suite =
  [
    Alcotest.test_case "normalize" `Quick test_normalize;
    Alcotest.test_case "of_vec" `Quick test_of_vec;
    Alcotest.test_case "ccw quarter turns" `Quick test_ccw_quarter;
    Alcotest.test_case "ccw full turn" `Quick test_ccw_same_direction_full_turn;
    QCheck_alcotest.to_alcotest ccw_positive;
    QCheck_alcotest.to_alcotest ccw_sums_to_full_turn;
  ]
