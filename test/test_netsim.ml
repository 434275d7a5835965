module Graph = Rtr_graph.Graph
module Damage = Rtr_failure.Damage
module Netsim = Rtr_des.Netsim
module Event_queue = Rtr_des.Event_queue

(* --- event queue ---------------------------------------------------- *)

let test_event_queue_order () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:3.0 "c";
  Event_queue.add q ~time:1.0 "a";
  Event_queue.add q ~time:2.0 "b";
  Event_queue.add q ~time:1.0 "a2";
  let rec drain acc =
    match Event_queue.pop q with
    | None -> List.rev acc
    | Some (_, x) -> drain (x :: acc)
  in
  Alcotest.(check (list string))
    "time order, insertion breaking ties"
    [ "a"; "a2"; "b"; "c" ]
    (drain [])

let test_event_queue_validation () =
  let q = Event_queue.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Event_queue.add: bad time")
    (fun () -> Event_queue.add q ~time:(-1.0) ());
  Alcotest.(check bool) "empty" true (Event_queue.pop q = None);
  Event_queue.add q ~time:5.0 ();
  Alcotest.(check int) "length" 1 (Event_queue.length q);
  Alcotest.(check bool) "pop" true (Event_queue.pop q = Some (5.0, ()))

(* --- netsim --------------------------------------------------------- *)

let quick_config ?(rtr = true) ?(flows = []) () =
  {
    Netsim.igp = Rtr_igp.Igp_config.classic;
    rtr_enabled = rtr;
    t_fail = 0.5;
    t_end = 4.0;
    flows;
  }

let paper_topo () = Rtr_topo.Paper_example.topology ()

let test_no_failure_all_delivered () =
  let topo = paper_topo () in
  let g = Rtr_topo.Topology.graph topo in
  let flows = [ { Netsim.src = 0; dst = 16; rate_pps = 100.0 } ] in
  let stats = Netsim.run topo (Damage.none g) (quick_config ~flows ()) in
  Alcotest.(check int) "nothing dropped" 0 stats.Netsim.dropped;
  Alcotest.(check int) "all delivered" stats.Netsim.generated
    stats.Netsim.delivered;
  Alcotest.(check int) "no walks" 0 stats.Netsim.phase1_packets

let paper_damage g =
  Damage.of_failed g
    ~nodes:[ Rtr_topo.Paper_example.failed_router ]
    ~links:(Rtr_topo.Paper_example.cut_links ())

let v = Rtr_topo.Paper_example.v

let test_rtr_recovers_during_window () =
  let topo = paper_topo () in
  let g = Rtr_topo.Topology.graph topo in
  let damage = paper_damage g in
  (* The paper's flow: v7 -> v17 rides the path broken at e6,11. *)
  let flows = [ { Netsim.src = v 7; dst = v 17; rate_pps = 100.0 } ] in
  let off = Netsim.run topo damage (quick_config ~rtr:false ~flows ()) in
  let on = Netsim.run topo damage (quick_config ~rtr:true ~flows ()) in
  Alcotest.(check bool) "igp alone drops plenty" true (off.Netsim.dropped > 100);
  Alcotest.(check bool) "rtr saves most of them" true
    (on.Netsim.delivered > off.Netsim.delivered + 100);
  Alcotest.(check bool) "some packets walked phase 1" true
    (on.Netsim.phase1_packets >= 1);
  (* After detection, RTR should lose (almost) nothing on this flow:
     only the hold-down blackholes remain. *)
  let blackholes =
    match List.assoc_opt Netsim.Blackhole on.Netsim.drops_by_reason with
    | Some k -> k
    | None -> 0
  in
  Alcotest.(check int) "all rtr drops are hold-down blackholes"
    on.Netsim.dropped blackholes

let test_unreachable_destination_discarded_early () =
  let topo = paper_topo () in
  let g = Rtr_topo.Topology.graph topo in
  (* Kill v10 and all of v17's links: v17 unreachable. *)
  let damage =
    Damage.of_failed g ~nodes:[ v 10 ]
      ~links:
        [
          Rtr_topo.Paper_example.link 15 17;
          Rtr_topo.Paper_example.link 17 18;
        ]
  in
  let flows = [ { Netsim.src = v 15; dst = v 17; rate_pps = 50.0 } ] in
  let stats = Netsim.run topo damage (quick_config ~flows ()) in
  let reason r = List.assoc_opt r stats.Netsim.drops_by_reason in
  Alcotest.(check bool) "early discards happen" true
    (match reason Netsim.Unreachable_in_view with Some k -> k > 0 | None -> false);
  Alcotest.(check int) "nothing delivered after failure"
    stats.Netsim.generated
    (stats.Netsim.delivered + stats.Netsim.dropped)

let test_deterministic () =
  let topo = paper_topo () in
  let g = Rtr_topo.Topology.graph topo in
  let damage = paper_damage g in
  let flows =
    [
      { Netsim.src = v 7; dst = v 17; rate_pps = 40.0 };
      { Netsim.src = v 3; dst = v 18; rate_pps = 40.0 };
    ]
  in
  let a = Netsim.run topo damage (quick_config ~flows ()) in
  let b = Netsim.run topo damage (quick_config ~flows ()) in
  Alcotest.(check int) "same delivered" a.Netsim.delivered b.Netsim.delivered;
  Alcotest.(check int) "same dropped" a.Netsim.dropped b.Netsim.dropped;
  Alcotest.(check bool) "same timeline" true
    (a.Netsim.timeline = b.Netsim.timeline)

let packets_conserved =
  QCheck.Test.make ~name:"every generated packet is delivered or dropped"
    ~count:25
    QCheck.(pair (int_range 8 25) (int_range 0 100))
    (fun (n, salt) ->
      let topo = Rtr_check.Gen.random_topology ~seed:(n * 29 + salt) ~n in
      let damage = Rtr_check.Gen.random_damage ~seed:salt topo in
      let rng = Rtr_util.Rng.make (salt + 7) in
      let flows =
        List.init 5 (fun _ ->
            {
              Netsim.src = Rtr_util.Rng.int rng n;
              dst = Rtr_util.Rng.int rng n;
              rate_pps = 30.0;
            })
        |> List.filter (fun f -> f.Netsim.src <> f.Netsim.dst)
      in
      let stats =
        Netsim.run topo damage
          {
            Netsim.igp = Rtr_igp.Igp_config.tuned;
            rtr_enabled = true;
            t_fail = 0.3;
            t_end = 2.0;
            flows;
          }
      in
      stats.Netsim.generated = stats.Netsim.delivered + stats.Netsim.dropped)

let rtr_never_hurts =
  QCheck.Test.make ~name:"enabling RTR never delivers fewer packets" ~count:20
    QCheck.(pair (int_range 10 25) (int_range 0 60))
    (fun (n, salt) ->
      let topo = Rtr_check.Gen.random_topology ~seed:(n * 31 + salt) ~n in
      let damage = Rtr_check.Gen.random_damage ~seed:(salt + 1) topo in
      let rng = Rtr_util.Rng.make (salt + 9) in
      let flows =
        List.init 6 (fun _ ->
            {
              Netsim.src = Rtr_util.Rng.int rng n;
              dst = Rtr_util.Rng.int rng n;
              rate_pps = 25.0;
            })
        |> List.filter (fun f -> f.Netsim.src <> f.Netsim.dst)
      in
      let run rtr_enabled =
        Netsim.run topo damage
          {
            Netsim.igp = Rtr_igp.Igp_config.classic;
            rtr_enabled;
            t_fail = 0.5;
            t_end = 3.0;
            flows;
          }
      in
      (run true).Netsim.delivered >= (run false).Netsim.delivered)

(* Audit of simultaneous-event ordering (satellite of the flow-engine
   PR): the heap's comparison is [time, then insertion seq] — a total
   strict order — so extraction must be a stable sort by time for ANY
   add/pop interleaving, including across internal array resizes.  The
   property below compares a drain against [List.stable_sort] on time
   alone; ties force the FIFO obligation. *)
let event_queue_fifo =
  QCheck.Test.make ~name:"event queue is a stable sort by time" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 200) (int_bound 9))
    (fun raw ->
      let q = Event_queue.create () in
      let events = List.mapi (fun i t -> (float_of_int t /. 10.0, i)) raw in
      List.iter (fun (time, payload) -> Event_queue.add q ~time payload) events;
      let rec drain acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, x) -> drain ((t, x) :: acc)
      in
      drain []
      = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) events)

(* Interleaved adds and pops at one timestamp, sized to cross the
   heap's growth threshold: earlier-inserted events must keep draining
   first even after later batches and resizes. *)
let test_event_queue_fifo_across_interleaving () =
  let q = Event_queue.create () in
  for i = 0 to 39 do
    Event_queue.add q ~time:1.0 i
  done;
  for i = 0 to 19 do
    match Event_queue.pop q with
    | Some (_, x) -> Alcotest.(check int) "first batch in order" i x
    | None -> Alcotest.fail "queue ran dry"
  done;
  for i = 40 to 99 do
    Event_queue.add q ~time:1.0 i
  done;
  let rec drain acc =
    match Event_queue.pop q with
    | None -> List.rev acc
    | Some (_, x) -> drain (x :: acc)
  in
  Alcotest.(check (list int))
    "remaining first batch, then second, in insertion order"
    (List.init 20 (fun i -> 20 + i) @ List.init 60 (fun i -> 40 + i))
    (drain [])

let suite =
  [
    Alcotest.test_case "event queue order" `Quick test_event_queue_order;
    Alcotest.test_case "event queue validation" `Quick test_event_queue_validation;
    QCheck_alcotest.to_alcotest event_queue_fifo;
    Alcotest.test_case "event queue fifo across interleaving" `Quick
      test_event_queue_fifo_across_interleaving;
    Alcotest.test_case "no failure, all delivered" `Quick
      test_no_failure_all_delivered;
    Alcotest.test_case "rtr recovers during window" `Quick
      test_rtr_recovers_during_window;
    Alcotest.test_case "unreachable discarded early" `Quick
      test_unreachable_destination_discarded_early;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    QCheck_alcotest.to_alcotest packets_conserved;
    QCheck_alcotest.to_alcotest rtr_never_hurts;
  ]
