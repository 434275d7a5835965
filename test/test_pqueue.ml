module Pqueue = Rtr_graph.Pqueue

let test_empty () =
  let h = Pqueue.create () in
  Alcotest.(check bool) "is_empty" true (Pqueue.is_empty h);
  Alcotest.(check int) "length" 0 (Pqueue.length h);
  Alcotest.(check (option (pair int int))) "pop" None (Pqueue.pop h)

let test_ordering () =
  let h = Pqueue.create () in
  List.iter
    (fun (p, t) -> Pqueue.push h ~prio:p ~tag:t)
    [ (5, 1); (3, 2); (9, 3); (3, 0); (1, 7) ];
  let drain () =
    let rec go acc =
      match Pqueue.pop h with None -> List.rev acc | Some x -> go (x :: acc)
    in
    go []
  in
  Alcotest.(check (list (pair int int)))
    "priority then tag order"
    [ (1, 7); (3, 0); (3, 2); (5, 1); (9, 3) ]
    (drain ())

let test_clear () =
  let h = Pqueue.create () in
  Pqueue.push h ~prio:1 ~tag:1;
  Pqueue.clear h;
  Alcotest.(check bool) "cleared" true (Pqueue.is_empty h)

let test_growth () =
  let h = Pqueue.create () in
  for i = 1000 downto 1 do
    Pqueue.push h ~prio:i ~tag:i
  done;
  Alcotest.(check int) "length" 1000 (Pqueue.length h);
  Alcotest.(check (option (pair int int))) "min" (Some (1, 1)) (Pqueue.pop h)

let heap_sorts =
  QCheck.Test.make ~name:"pqueue drains in sorted order" ~count:100
    QCheck.(list (pair small_nat small_nat))
    (fun items ->
      let h = Pqueue.create () in
      List.iter (fun (p, t) -> Pqueue.push h ~prio:p ~tag:t) items;
      let rec drain acc =
        match Pqueue.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      let out = drain [] in
      out = List.sort compare items)

(* --- Dial (bucket-queue) mode --------------------------------------- *)

(* A dial-capable queue the way every workspace queue gets one: created
   in heap mode, then configured for its bound. *)
let bounded ~bound =
  let q = Pqueue.create () in
  Pqueue.configure q ~bound;
  q

let drain h =
  let rec go acc =
    match Pqueue.pop h with None -> List.rev acc | Some x -> go (x :: acc)
  in
  go []

let test_dial_selected () =
  let d = bounded ~bound:100 in
  Alcotest.(check bool) "bound 100 -> dial" true (Pqueue.uses_dial d);
  let h = bounded ~bound:(-1) in
  Alcotest.(check bool) "bound -1 -> heap" false (Pqueue.uses_dial h);
  let big = bounded ~bound:(Pqueue.max_dial_bound + 1) in
  Alcotest.(check bool) "bound over max -> heap" false (Pqueue.uses_dial big);
  let edge = bounded ~bound:Pqueue.max_dial_bound in
  Alcotest.(check bool) "bound at max -> dial" true (Pqueue.uses_dial edge)

let test_dial_bound_for () =
  Alcotest.(check int) "unit costs" 9 (Pqueue.dial_bound_for ~max_cost:1 ~n_nodes:10);
  Alcotest.(check int) "single node" 0 (Pqueue.dial_bound_for ~max_cost:7 ~n_nodes:1);
  Alcotest.(check int) "overflowing product" (-1)
    (Pqueue.dial_bound_for ~max_cost:(Pqueue.max_dial_bound + 1) ~n_nodes:2);
  Alcotest.(check int) "huge cost, no overflow trap" (-1)
    (Pqueue.dial_bound_for ~max_cost:max_int ~n_nodes:1000)

(* The monotone-bound contract: dial mode rejects out-of-range
   priorities loudly instead of corrupting buckets. *)
let test_dial_bound_violation () =
  let d = bounded ~bound:10 in
  Pqueue.push d ~prio:0 ~tag:1;
  Pqueue.push d ~prio:10 ~tag:2;
  Alcotest.check_raises "prio = bound + 1 rejected"
    (Invalid_argument "Pqueue.push: priority 11 outside dial bound [0,10]")
    (fun () -> Pqueue.push d ~prio:11 ~tag:3);
  Alcotest.check_raises "negative prio rejected"
    (Invalid_argument "Pqueue.push: priority -1 outside dial bound [0,10]")
    (fun () -> Pqueue.push d ~prio:(-1) ~tag:3);
  (* The in-range pushes survive the failed ones. *)
  Alcotest.(check (list (pair int int)))
    "queue intact" [ (0, 1); (10, 2) ] (drain d)

(* The bucket at exactly [bound] works — the classic off-by-one wrap
   position of a bucket array. *)
let test_dial_bucket_boundary () =
  let b = 37 in
  let d = bounded ~bound:b in
  Pqueue.push d ~prio:b ~tag:5;
  Pqueue.push d ~prio:b ~tag:3;
  Pqueue.push d ~prio:0 ~tag:9;
  Alcotest.(check (list (pair int int)))
    "min bucket, then max bucket with tag ties"
    [ (0, 9); (b, 3); (b, 5) ]
    (drain d);
  (* Reuse across clears keeps the boundary bucket sound. *)
  Pqueue.push d ~prio:b ~tag:1;
  Pqueue.clear d;
  Pqueue.push d ~prio:b ~tag:2;
  Alcotest.(check (option (pair int int))) "after clear" (Some (b, 2))
    (Pqueue.pop d)

(* Lazy-deletion decrease-key: re-insert at a better priority, the
   better copy pops first and the caller skips the stale one — both
   disciplines expose the duplicate identically. *)
let test_dial_decrease_key () =
  let run q =
    Pqueue.push q ~prio:8 ~tag:4;
    Pqueue.push q ~prio:5 ~tag:7;
    (* decrease tag 4: 8 -> 2 (re-insert; the 8 becomes stale) *)
    Pqueue.push q ~prio:2 ~tag:4;
    drain q
  in
  let dial = run (bounded ~bound:10) in
  let heap = run (Pqueue.create ()) in
  Alcotest.(check (list (pair int int)))
    "both disciplines expose the stale copy in order"
    [ (2, 4); (5, 7); (8, 4) ]
    dial;
  Alcotest.(check (list (pair int int))) "dial = heap" heap dial

(* Differential: identical random workloads (with equal-priority tag
   ties and duplicate entries) pop identically in both disciplines,
   including interleaved pops partway through. *)
let dial_matches_heap =
  QCheck.Test.make ~name:"dial pops bit-identically to heap" ~count:300
    QCheck.(
      pair
        (list (pair (int_bound 50) (int_bound 20)))
        (list (pair (int_bound 50) (int_bound 20))))
    (fun (batch1, batch2) ->
      let dial = bounded ~bound:50 in
      let heap = Pqueue.create () in
      let feed items =
        List.iter
          (fun (p, t) ->
            Pqueue.push dial ~prio:p ~tag:t;
            Pqueue.push heap ~prio:p ~tag:t)
          items
      in
      (* Push a batch, drain half, push more, drain the rest: the
         cursor must rewind correctly when later pushes undercut it. *)
      feed batch1;
      let half = List.length batch1 / 2 in
      let ok = ref true in
      for _ = 1 to half do
        if Pqueue.pop dial <> Pqueue.pop heap then ok := false
      done;
      feed batch2;
      let rec drain_both () =
        let a = Pqueue.pop dial and b = Pqueue.pop heap in
        if a <> b then ok := false;
        if a <> None && !ok then drain_both ()
      in
      drain_both ();
      !ok && Pqueue.is_empty dial && Pqueue.is_empty heap)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "growth" `Quick test_growth;
    QCheck_alcotest.to_alcotest heap_sorts;
    Alcotest.test_case "dial selection" `Quick test_dial_selected;
    Alcotest.test_case "dial bound_for" `Quick test_dial_bound_for;
    Alcotest.test_case "dial bound violation" `Quick test_dial_bound_violation;
    Alcotest.test_case "dial bucket boundary" `Quick test_dial_bucket_boundary;
    Alcotest.test_case "dial decrease-key" `Quick test_dial_decrease_key;
    QCheck_alcotest.to_alcotest dial_matches_heap;
  ]
