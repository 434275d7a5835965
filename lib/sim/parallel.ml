module Metrics = Rtr_obs.Metrics
module Trace = Rtr_obs.Trace
module Pool = Rtr_util.Pool

let check_jobs n =
  if n >= 1 && n <= Pool.max_jobs then Ok n
  else Error (Printf.sprintf "--jobs must be in 1..%d, got %d" Pool.max_jobs n)

let env_jobs () =
  let recommended = min (Domain.recommended_domain_count ()) Pool.max_jobs in
  match Sys.getenv_opt "RTR_JOBS" with
  | Some s -> (
      match Option.map check_jobs (int_of_string_opt (String.trim s)) with
      | Some (Ok n) -> n
      | Some (Error _) | None ->
          Printf.eprintf
            "warning: RTR_JOBS=%S is not an integer in 1..%d; using the \
             recommended domain count\n\
             %!"
            s Pool.max_jobs;
          recommended)
  | None -> recommended

(* The largest job count any pool run of this process actually used —
   what a run manifest should record as the effective parallelism.
   Only the coordinating domain calls the pool, so a plain ref is
   enough. *)
let noted = ref None
let note_jobs jobs = noted := Some (max jobs (Option.value !noted ~default:1))
let noted_jobs () = !noted

(* Registered on first parallel run, not at module initialisation: a
   sequential run must snapshot exactly the pre-pool set of metric
   names. *)
let handles =
  lazy
    ( Metrics.counter "pool.runs",
      Metrics.counter "pool.tasks",
      Metrics.gauge "pool.jobs",
      Metrics.histogram "pool.worker_tasks",
      Metrics.histogram "pool.worker_busy_s",
      Metrics.histogram "pool.worker_idle_s" )

let obs_hooks ~jobs =
  let c_runs, c_tasks, g_jobs, h_tasks, h_busy, h_idle = Lazy.force handles in
  let snaps = Array.make jobs Metrics.Snapshot.empty in
  let spawned = ref 0 in
  let wrap w body =
    Trace.with_ "pool.shard" ~attrs:[ ("worker", string_of_int w) ] body;
    (* Runs in the worker domain: capture its cells before it exits.
       Publication to the coordinator is ordered by Domain.join. *)
    snaps.(w) <- Metrics.snapshot ()
  in
  (* One record per spawned worker. *)
  let on_stats stats =
    spawned := List.length stats;
    List.iter
      (fun (s : Pool.worker_stats) ->
        Metrics.Histogram.observe h_tasks (float_of_int s.Pool.tasks);
        Metrics.Histogram.observe h_busy s.Pool.busy_s;
        Metrics.Histogram.observe h_idle s.Pool.idle_s)
      stats
  in
  let finish ~tasks =
    Array.iter Metrics.absorb snaps;
    Metrics.Counter.incr c_runs;
    Metrics.Counter.add c_tasks tasks;
    Metrics.Gauge.set_max g_jobs (float_of_int !spawned)
  in
  (wrap, on_stats, finish)

let map ~jobs f input =
  note_jobs jobs;
  let n = Array.length input in
  if jobs <= 1 || n <= 1 then Array.map f input
  else begin
    let wrap, on_stats, finish = obs_hooks ~jobs in
    let out = Pool.map ~wrap_worker:wrap ~on_stats ~jobs f input in
    finish ~tasks:n;
    out
  end

let stream ~jobs ?capacity f ~producer ~consumer () =
  note_jobs jobs;
  if jobs <= 1 then
    Pool.stream ~jobs:1 f ~producer ~consumer ()
  else begin
    let wrap, on_stats, finish = obs_hooks ~jobs in
    let n =
      Pool.stream ~wrap_worker:wrap ~on_stats ?capacity ~jobs f ~producer
        ~consumer ()
    in
    finish ~tasks:n;
    n
  end
