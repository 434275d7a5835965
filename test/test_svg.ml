module PE = Rtr_topo.Paper_example
module Graph = Rtr_graph.Graph
module Damage = Rtr_failure.Damage
module Svg = Rtr_viz.Svg

let count_sub ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i acc =
    if i + n > m then acc
    else go (i + 1) (if String.sub s i n = affix then acc + 1 else acc)
  in
  go 0 0

let paper_render () =
  let topo = PE.topology () in
  let g = Rtr_topo.Topology.graph topo in
  let damage =
    Damage.of_failed g ~nodes:[ PE.failed_router ] ~links:(PE.cut_links ())
  in
  let session =
    Rtr_core.Rtr.start topo damage ~initiator:PE.initiator ~trigger:PE.trigger
      ()
  in
  let p1 = Rtr_core.Rtr.phase1 session in
  let path =
    match Rtr_core.Rtr.recover session ~dst:PE.destination with
    | Rtr_core.Rtr.Recovered p -> p
    | _ -> Alcotest.fail "expected recovery"
  in
  ( topo,
    damage,
    Svg.render topo ~damage
      ~overlays:
        [ Svg.Walk p1.Rtr_core.Phase1.walk; Svg.Route ("recovery", "#26c", path) ]
      () )

let test_document_shape () =
  let _, _, doc = paper_render () in
  Alcotest.(check bool) "opens svg" true
    (String.length doc > 0 && String.sub doc 0 4 = "<svg");
  Alcotest.(check int) "closes svg" 1 (count_sub ~affix:"</svg>" doc)

let test_element_counts () =
  let topo, damage, doc = paper_render () in
  let g = Rtr_topo.Topology.graph topo in
  (* One circle per router (no failure-area disc here). *)
  Alcotest.(check int) "node circles" (Graph.n_nodes g)
    (count_sub ~affix:"<circle" doc);
  (* One line per link, plus one legend line per overlay. *)
  Alcotest.(check int) "link lines"
    (Graph.n_links g)
    (count_sub ~affix:"<line" doc - count_sub ~affix:"x1=\"14\"" doc);
  (* Failed links drawn dashed red. *)
  Alcotest.(check int) "failed links dashed"
    (Damage.n_failed_links damage)
    (count_sub ~affix:"stroke-dasharray=\"4 3\"" doc);
  (* Two overlays: walk + route. *)
  Alcotest.(check int) "overlay polylines" 2 (count_sub ~affix:"<polyline" doc)

let test_area_rendered () =
  let topo = PE.topology () in
  let area =
    Rtr_failure.Area.disc ~center:(Rtr_geom.Point.make 310.0 300.0) ~radius:60.0
  in
  let doc = Svg.render topo ~area () in
  Alcotest.(check bool) "translucent disc present" true
    (count_sub ~affix:"fill-opacity=\"0.12\"" doc = 1);
  let poly_area =
    Rtr_failure.Area.poly
      (Test_polygon.regular
         ~center:(Rtr_geom.Point.make 310.0 300.0)
         ~radius:60.0 ~sides:5)
  in
  let doc2 = Svg.render topo ~area:poly_area () in
  Alcotest.(check int) "polygon area" 1 (count_sub ~affix:"<polygon" doc2)

let test_labels_follow_size () =
  let topo = PE.topology () in
  let doc = Svg.render topo () in
  Alcotest.(check bool) "small graph labelled" true
    (count_sub ~affix:">v0</text>" doc = 1);
  let doc2 = Svg.render topo ~label_nodes:false () in
  Alcotest.(check int) "labels off" 0 (count_sub ~affix:">v0</text>" doc2);
  let big = Rtr_topo.Isp.load_by_name "AS7018" in
  let doc3 = Svg.render big () in
  Alcotest.(check int) "big graph unlabelled by default" 0
    (count_sub ~affix:">v0</text>" doc3)

let test_save () =
  let topo = PE.topology () in
  let path = Filename.temp_file "rtr_svg" ".svg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Svg.save topo path;
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          Alcotest.(check bool) "non-empty file" true
            (in_channel_length ic > 100)))

let suite =
  [
    Alcotest.test_case "document shape" `Quick test_document_shape;
    Alcotest.test_case "element counts" `Quick test_element_counts;
    Alcotest.test_case "area rendered" `Quick test_area_rendered;
    Alcotest.test_case "labels follow size" `Quick test_labels_follow_size;
    Alcotest.test_case "save" `Quick test_save;
  ]
