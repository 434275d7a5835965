module Pqueue = Rtr_graph.Pqueue

(* [pop] returns only the tag, so the tests that need the priority of
   what came out push [(p, t)] as the tag [p * 1000 + t] ([t < 1000])
   and decode it on the way out. *)
let push_pair q (p, t) = Pqueue.push q ~prio:p ~tag:((p * 1000) + t)

let drain q =
  let rec go acc =
    match Pqueue.pop q with
    | -1 -> List.rev acc
    | tag -> go ((tag / 1000, tag mod 1000) :: acc)
  in
  go []

let test_empty () =
  let h = Pqueue.create () in
  Alcotest.(check int) "pop" (-1) (Pqueue.pop h);
  Pqueue.push h ~prio:4 ~tag:2;
  Alcotest.(check int) "pop the one entry" 2 (Pqueue.pop h);
  Alcotest.(check int) "empty again" (-1) (Pqueue.pop h)

let test_ordering () =
  let h = Pqueue.create () in
  List.iter (push_pair h) [ (5, 1); (3, 2); (9, 3); (3, 0); (1, 7) ];
  Alcotest.(check (list (pair int int)))
    "priority then tag order"
    [ (1, 7); (3, 0); (3, 2); (5, 1); (9, 3) ]
    (drain h)

let test_clear () =
  let h = Pqueue.create () in
  Pqueue.push h ~prio:1 ~tag:1;
  Pqueue.clear h;
  Alcotest.(check int) "cleared" (-1) (Pqueue.pop h)

let test_growth () =
  let h = Pqueue.create () in
  for i = 1000 downto 1 do
    Pqueue.push h ~prio:i ~tag:i
  done;
  Alcotest.(check int) "min" 1 (Pqueue.pop h);
  let rec count n = if Pqueue.pop h = -1 then n else count (n + 1) in
  Alcotest.(check int) "every entry pops once" 1000 (count 1)

let heap_sorts =
  QCheck.Test.make ~name:"pqueue drains in sorted order" ~count:100
    QCheck.(list (pair small_nat small_nat))
    (fun items ->
      let h = Pqueue.create () in
      List.iter (push_pair h) items;
      drain h = List.sort compare items)

(* --- Dial (bucket-queue) mode --------------------------------------- *)

(* A dial-capable queue the way every workspace queue gets one: created
   in heap mode, then configured for its bound. *)
let bounded ~bound =
  let q = Pqueue.create () in
  Pqueue.configure q ~bound;
  q

(* The discipline [configure] picked, read from the counters it bumps. *)
let selected ~bound =
  let value n = Rtr_obs.Metrics.(Counter.value (counter n)) in
  let dial = value "pqueue.dial_selected"
  and heap = value "pqueue.heap_selected" in
  ignore (bounded ~bound);
  match
    (value "pqueue.dial_selected" - dial, value "pqueue.heap_selected" - heap)
  with
  | 1, 0 -> `Dial
  | 0, 1 -> `Heap
  | d, h -> Alcotest.failf "configure counted %d dial and %d heap" d h

let test_dial_selected () =
  let check what want bound =
    Alcotest.(check bool) what true (selected ~bound = want)
  in
  check "bound 100 -> dial" `Dial 100;
  check "bound -1 -> heap" `Heap (-1);
  check "bound over max -> heap" `Heap (Pqueue.max_dial_bound + 1);
  check "bound at max -> dial" `Dial Pqueue.max_dial_bound

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
  push_pair d (0, 1);
  push_pair d (10, 2);
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
  push_pair d (b, 5);
  push_pair d (b, 3);
  push_pair d (0, 9);
  let out = drain d in
  Alcotest.(check (list int))
    "min bucket, then max bucket" [ 0; b; b ] (List.map fst out);
  Alcotest.(check (list (pair int int)))
    "every entry once" [ (0, 9); (b, 3); (b, 5) ] (List.sort compare out);
  (* Reuse across clears keeps the boundary bucket sound. *)
  push_pair d (b, 1);
  Pqueue.clear d;
  push_pair d (b, 2);
  Alcotest.(check (list (pair int int))) "after clear" [ (b, 2) ] (drain d)

(* Lazy-deletion decrease-key: re-insert at a better priority, the
   better copy pops first and the caller skips the stale one — both
   disciplines expose the duplicate identically. *)
let test_dial_decrease_key () =
  let run q =
    Pqueue.push q ~prio:8 ~tag:4;
    Pqueue.push q ~prio:5 ~tag:7;
    (* decrease tag 4: 8 -> 2 (re-insert; the 8 becomes stale) *)
    Pqueue.push q ~prio:2 ~tag:4;
    List.init 4 (fun _ -> Pqueue.pop q)
  in
  let dial = run (bounded ~bound:10) in
  let heap = run (Pqueue.create ()) in
  Alcotest.(check (list int))
    "both disciplines expose the stale copy in order" [ 4; 7; 4; -1 ] dial;
  Alcotest.(check (list int)) "dial = heap" heap dial

(* Differential: identical random workloads (with equal-priority ties
   and duplicate entries) pop the same priority sequence in both
   disciplines, including interleaved pops partway through, and every
   priority's entries come out as the same multiset.  Within one
   priority a Dial bucket pops last-in first-out and the heap by tag;
   that order is deliberately unspecified ([Dijkstra]'s canonical tree
   comes from its own tie rule). *)
let dial_matches_heap =
  QCheck.Test.make ~name:"dial pops the heap's priorities and multisets"
    ~count:300
    QCheck.(
      pair
        (list (pair (int_bound 50) (int_bound 20)))
        (list (pair (int_bound 50) (int_bound 20))))
    (fun (batch1, batch2) ->
      let dial = bounded ~bound:50 in
      let heap = Pqueue.create () in
      let feed = List.iter (fun x -> push_pair dial x; push_pair heap x) in
      let pop_both n =
        List.init n (fun _ ->
            let a = Pqueue.pop dial and b = Pqueue.pop heap in
            ((a / 1000, a), (b / 1000, b)))
      in
      (* Push a batch, drain half, push more, drain the rest: the
         cursor must rewind correctly when later pushes undercut it. *)
      feed batch1;
      let first = pop_both (List.length batch1 / 2) in
      feed batch2;
      let left = List.length batch1 - List.length first in
      let rest = pop_both (left + List.length batch2) in
      let out = first @ rest in
      let dial_out = List.map fst out and heap_out = List.map snd out in
      List.map fst dial_out = List.map fst heap_out
      && List.sort compare dial_out = List.sort compare heap_out
      && Pqueue.pop dial = -1 && Pqueue.pop heap = -1)

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
