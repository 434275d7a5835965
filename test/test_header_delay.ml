module Header = Rtr_routing.Header
module Delay = Rtr_routing.Delay

let test_constants () =
  Alcotest.(check int) "link id is 16 bits" 2 Header.link_id_bytes;
  Alcotest.(check int) "node id is 16 bits" 2 Header.node_id_bytes;
  Alcotest.(check int) "payload" 1000 Header.payload_bytes

let test_phase1_layout () =
  Alcotest.(check int) "empty header" 3 (Header.rtr_phase1 ~n_failed:0 ~n_cross:0);
  Alcotest.(check int) "five failed two cross"
    (3 + (2 * 7))
    (Header.rtr_phase1 ~n_failed:5 ~n_cross:2)

let test_phase2_and_fcp () =
  Alcotest.(check int) "source route" 8 (Header.source_route ~hops:4);
  Alcotest.(check int) "phase2 adds mode byte" 9 (Header.rtr_phase2 ~hops:4);
  Alcotest.(check int) "fcp header" (2 * 3 + 2 * 5)
    (Header.fcp ~n_failed:3 ~route_hops:5)

let test_delay_model () =
  let feq = Alcotest.float 1e-12 in
  Alcotest.check feq "per hop is 1.8 ms" 1.8e-3 Delay.per_hop_s;
  Alcotest.check feq "ten hops" 18e-3 (Delay.of_hops 10);
  Alcotest.check feq "ms conversion" 18.0 (Delay.ms (Delay.of_hops 10))

let suite =
  [
    Alcotest.test_case "constants" `Quick test_constants;
    Alcotest.test_case "phase1 layout" `Quick test_phase1_layout;
    Alcotest.test_case "phase2/fcp layout" `Quick test_phase2_and_fcp;
    Alcotest.test_case "delay model" `Quick test_delay_model;
  ]
