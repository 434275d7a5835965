module Parallel = Rtr_sim.Parallel
module Metrics = Rtr_obs.Metrics

let jobs = 4

(* One run below the worker count, one far above the 4 * jobs window. *)
let sizes = [ 3; 200 ]

let c_work = Metrics.counter "test.parallel.work"

(* Early tasks sleep longest, so with several workers late tasks finish
   first; every task also bumps a counter on its worker domain. *)
let task i =
  if i < 3 then Unix.sleepf (0.01 *. float_of_int (3 - i));
  Metrics.Counter.incr c_work;
  i * i

let stream_of n f =
  let next = ref 0 in
  let producer () =
    if !next = n then None
    else begin
      let i = !next in
      incr next;
      Some i
    end
  in
  let seen = ref [] in
  let total =
    Parallel.stream ~jobs f ~producer
      ~consumer:(fun seq v -> seen := (seq, v) :: !seen)
      ()
  in
  (total, List.rev !seen)

let test_submission_order () =
  List.iter
    (fun n ->
      let expected = Array.init n (fun i -> i * i) in
      Alcotest.(check (array int))
        (Printf.sprintf "map n=%d" n)
        expected
        (Parallel.map ~jobs task (Array.init n Fun.id));
      let total, seen = stream_of n task in
      Alcotest.(check int) (Printf.sprintf "stream n=%d count" n) n total;
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "stream n=%d order" n)
        (List.init n (fun i -> (i, i * i)))
        seen)
    sizes

(* Workers count into their own domain's cells; the join must fold
   every increment back into the caller's. *)
let test_worker_counters_absorbed () =
  List.iter
    (fun n ->
      let v0 = Metrics.Counter.value c_work in
      ignore (Parallel.map ~jobs task (Array.init n Fun.id));
      Alcotest.(check int)
        (Printf.sprintf "map n=%d" n)
        n
        (Metrics.Counter.value c_work - v0);
      let v0 = Metrics.Counter.value c_work in
      ignore (stream_of n task);
      Alcotest.(check int)
        (Printf.sprintf "stream n=%d" n)
        n
        (Metrics.Counter.value c_work - v0))
    sizes

(* [pool.jobs] keeps a running maximum, so it is cleared before each
   run; [pool.worker_tasks] gets one observation per worker. *)
let test_map_pool_metrics () =
  List.iter
    (fun n ->
      let g_jobs = Metrics.gauge "pool.jobs" in
      let c_tasks = Metrics.counter "pool.tasks" in
      let h_workers = Metrics.histogram "pool.worker_tasks" in
      Metrics.Gauge.set g_jobs 0.0;
      let t0 = Metrics.Counter.value c_tasks
      and w0 = Metrics.Histogram.count h_workers in
      ignore (Parallel.map ~jobs task (Array.init n Fun.id));
      let used = min jobs n in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "pool.jobs n=%d" n)
        (float_of_int used)
        (Metrics.Gauge.value g_jobs);
      Alcotest.(check int)
        (Printf.sprintf "pool.tasks n=%d" n)
        n
        (Metrics.Counter.value c_tasks - t0);
      Alcotest.(check int)
        (Printf.sprintf "one stats record per worker n=%d" n)
        used
        (Metrics.Histogram.count h_workers - w0))
    sizes

(* Workers are spawned as tasks arrive: a 2-task stream at jobs 4
   starts two domains, so two stats records and [pool.jobs] = 2. *)
let test_short_stream_spawns_per_task () =
  let g_jobs = Metrics.gauge "pool.jobs" in
  let h_workers = Metrics.histogram "pool.worker_tasks" in
  Metrics.Gauge.set g_jobs 0.0;
  let w0 = Metrics.Histogram.count h_workers in
  let total, seen = stream_of 2 task in
  Alcotest.(check int) "tasks" 2 total;
  Alcotest.(check (list (pair int int))) "results" [ (0, 0); (1, 1) ] seen;
  Alcotest.(check int) "one stats record per spawned worker" 2
    (Metrics.Histogram.count h_workers - w0);
  Alcotest.(check (float 0.0)) "pool.jobs" 2.0 (Metrics.Gauge.value g_jobs)

(* Task 1 fails at once while its siblings are still sleeping: the
   exception may only reach the caller once no task is running, i.e.
   after every worker domain has joined. *)
let test_exception_after_join () =
  let running = Atomic.make 0 in
  let f i =
    Atomic.incr running;
    Fun.protect
      ~finally:(fun () -> Atomic.decr running)
      (fun () ->
        if i = 1 then failwith "boom";
        Unix.sleepf 0.005;
        i)
  in
  List.iter
    (fun n ->
      Alcotest.check_raises
        (Printf.sprintf "map n=%d re-raises" n)
        (Failure "boom")
        (fun () -> ignore (Parallel.map ~jobs f (Array.init n Fun.id)));
      Alcotest.(check int)
        (Printf.sprintf "map n=%d: no task still running" n)
        0 (Atomic.get running);
      Alcotest.check_raises
        (Printf.sprintf "stream n=%d re-raises" n)
        (Failure "boom")
        (fun () -> ignore (stream_of n f));
      Alcotest.(check int)
        (Printf.sprintf "stream n=%d: no task still running" n)
        0 (Atomic.get running))
    sizes

(* The runtime's domain limit, checked without starting a domain:
   [--jobs] refuses a count outside 1..127 and RTR_JOBS falls back. *)
let test_jobs_range () =
  Alcotest.(check int) "127 workers beside the caller" 127
    Rtr_util.Pool.max_jobs;
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "%d accepted" n) true
        (Parallel.check_jobs n = Ok n))
    [ 1; 2; 127 ];
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "%d refused" n) true
        (Result.is_error (Parallel.check_jobs n)))
    [ min_int; -1; 0; 128; 200; max_int ];
  let saved = Sys.getenv_opt "RTR_JOBS" in
  let env s =
    Unix.putenv "RTR_JOBS" s;
    Parallel.env_jobs ()
  in
  let fallback = env "abc" in
  Alcotest.(check bool) "fallback within range" true
    (Parallel.check_jobs fallback = Ok fallback);
  Alcotest.(check int) "127 read as is" 127 (env "127");
  List.iter
    (fun s -> Alcotest.(check int) (s ^ " falls back") fallback (env s))
    [ "0"; "128"; "200"; "-3" ];
  Unix.putenv "RTR_JOBS" (Option.value saved ~default:"")

let suite =
  [
    Alcotest.test_case "map and stream keep submission order" `Quick
      test_submission_order;
    Alcotest.test_case "worker counters absorbed into caller" `Quick
      test_worker_counters_absorbed;
    Alcotest.test_case "map records pool.jobs = min jobs n" `Quick
      test_map_pool_metrics;
    Alcotest.test_case "short stream spawns one worker per task" `Quick
      test_short_stream_spawns_per_task;
    Alcotest.test_case "exception re-raised after every join" `Quick
      test_exception_after_join;
    Alcotest.test_case "jobs bounded by the domain limit" `Quick
      test_jobs_range;
  ]
