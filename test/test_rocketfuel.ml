module Rocketfuel = Rtr_topo.Rocketfuel
module Topology = Rtr_topo.Topology
module Graph = Rtr_graph.Graph

let ok = function Ok t -> t | Error msg -> Alcotest.fail msg

let weights_sample =
  {|# inferred weights
Seattle,WA Portland,OR 2.5
Portland,OR Seattle,WA 2.5
Seattle,WA Denver,CO 10
Denver,CO Seattle,WA 12
Denver,CO Portland,OR 8.4
Portland,OR Denver,CO 8.4
|}

let test_weights_basic () =
  let t = ok (Rocketfuel.of_weights ~seed:1 weights_sample) in
  let g = Topology.graph t in
  Alcotest.(check int) "three cities" 3 (Graph.n_nodes g);
  Alcotest.(check int) "three links" 3 (Graph.n_links g);
  (* Seattle=0, Portland=1, Denver=2 in appearance order. *)
  let l = Option.get (Graph.find_link g 0 2) in
  Alcotest.(check int) "seattle->denver" 10 (Graph.cost g l ~src:0);
  Alcotest.(check int) "denver->seattle asymmetric" 12 (Graph.cost g l ~src:2)

let test_weights_missing_reverse () =
  let t =
    ok
      (Rocketfuel.of_weights ~seed:1
         "a,x b,y 3\nb,y c,z 4\nc,z b,y 4\na,x c,z 9\nc,z a,x 9\n")
  in
  let g = Topology.graph t in
  let l = Option.get (Graph.find_link g 0 1) in
  Alcotest.(check int) "reverse inherits forward" 3 (Graph.cost g l ~src:1)

let test_weights_spaced_names () =
  let t =
    ok
      (Rocketfuel.of_weights ~seed:1
         "New York, NY Washington, DC 5\nWashington, DC New York, NY 5\nNew York, NY Boston, MA 3\nBoston, MA New York, NY 3\nBoston, MA Washington, DC 7\nWashington, DC Boston, MA 7\n")
  in
  Alcotest.(check int) "three metros" 3 (Graph.n_nodes (Topology.graph t))

let expect_error ~prefix input =
  match Rocketfuel.of_weights ~seed:1 input with
  | Error msg ->
      Alcotest.(check string)
        ("error for " ^ String.escaped input)
        prefix
        (String.sub msg 0 (min (String.length msg) (String.length prefix)))
  | Ok _ -> Alcotest.fail ("accepted " ^ String.escaped input)

let test_weights_validation () =
  expect_error ~prefix:"line 1: bad weight" "a,x b,y notanumber\n";
  expect_error ~prefix:"Rocketfuel: no nodes" "";
  expect_error ~prefix:"Rocketfuel: map is not connected"
    "a,x b,y 1\nb,y a,x 1\nc,z d,w 1\nd,w c,z 1\n"

(* Weights that used to become cost 1 silently: each is an error naming
   its line, and 2^30 itself is still accepted. *)
let test_weights_out_of_range () =
  List.iter
    (fun w ->
      expect_error ~prefix:"line 2: weight"
        (Printf.sprintf "a,x b,y 1\nb,y a,x %s\n" w))
    [ "nan"; "inf"; "-inf"; "-4"; "0"; "1e300"; "1073741825" ];
  let t = ok (Rocketfuel.of_weights ~seed:1 "a,x b,y 1073741824\n") in
  let g = Topology.graph t in
  Alcotest.(check int) "2^30 kept" (1 lsl 30)
    (Graph.cost g (Option.get (Graph.find_link g 0 1)) ~src:0)

let test_weights_deterministic_embedding () =
  let t1 = ok (Rocketfuel.of_weights ~seed:9 weights_sample) in
  let t2 = ok (Rocketfuel.of_weights ~seed:9 weights_sample) in
  let p e i = Rtr_topo.Embedding.position (Topology.embedding e) i in
  Alcotest.(check bool) "same seed, same placement" true
    (Rtr_geom.Point.equal (p t1 0) (p t2 0));
  let t3 = ok (Rocketfuel.of_weights ~seed:10 weights_sample) in
  Alcotest.(check bool) "different seed differs" false
    (Rtr_geom.Point.equal (p t1 0) (p t3 0))

let cch_sample =
  {|0 @Seattle,+WA bb (3) &1 -> <1> <2> {-99} =r0.sea rn
1 @Portland,+OR bb (2) -> <0> <2> =r1.pdx rn
2 @Denver,+CO bb (2) -> <0> <1> =r2.den rn
-99 @External
|}

let test_cch_basic () =
  let t = ok (Rocketfuel.of_cch ~seed:1 cch_sample) in
  let g = Topology.graph t in
  Alcotest.(check int) "three routers" 3 (Graph.n_nodes g);
  Alcotest.(check int) "triangle" 3 (Graph.n_links g);
  Alcotest.(check bool) "unit costs" true
    (Graph.fold_links g ~init:true ~f:(fun acc id u _ ->
         acc && Graph.cost g id ~src:u = 1))

let test_cch_end_to_end_recovery () =
  (* A parsed map must drive the whole stack. *)
  let t = ok (Rocketfuel.of_cch ~seed:5 cch_sample) in
  let g = Topology.graph t in
  let l01 = Option.get (Graph.find_link g 0 1) in
  let damage = Rtr_failure.Damage.of_failed g ~nodes:[] ~links:[ l01 ] in
  let session = Rtr_core.Rtr.start t damage ~initiator:0 ~trigger:1 () in
  match Rtr_core.Rtr.recover session ~dst:1 with
  | Rtr_core.Rtr.Recovered path ->
      Alcotest.(check int) "detour via denver" 2 (Rtr_graph.Path.hops path)
  | _ -> Alcotest.fail "single link failure must recover (Theorem 3)"

let test_file_loaders () =
  let path = Filename.temp_file "rtr_rf" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc weights_sample;
      close_out oc;
      let t = ok (Rocketfuel.load_weights ~seed:1 path) in
      Alcotest.(check int) "loaded" 3 (Graph.n_nodes (Topology.graph t)));
  Alcotest.(check bool) "missing file is an error" true
    (Result.is_error (Rocketfuel.load_cch ~seed:1 (path ^ ".missing")))

let suite =
  [
    Alcotest.test_case "weights basic" `Quick test_weights_basic;
    Alcotest.test_case "weights missing reverse" `Quick test_weights_missing_reverse;
    Alcotest.test_case "weights spaced names" `Quick test_weights_spaced_names;
    Alcotest.test_case "weights validation" `Quick test_weights_validation;
    Alcotest.test_case "weights out of range" `Quick test_weights_out_of_range;
    Alcotest.test_case "weights deterministic embedding" `Quick
      test_weights_deterministic_embedding;
    Alcotest.test_case "cch basic" `Quick test_cch_basic;
    Alcotest.test_case "cch end-to-end recovery" `Quick test_cch_end_to_end_recovery;
    Alcotest.test_case "file loaders" `Quick test_file_loaders;
  ]
