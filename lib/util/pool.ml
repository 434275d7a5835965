type worker_stats = {
  worker : int;
  tasks : int;
  busy_s : float;
  idle_s : float;
}

(* The OCaml 5.1 runtime's [Max_domains] (128), less the calling
   domain. *)
let max_jobs = 127

(* The one scheduler, behind both [stream] and [map]: the coordinator
   pulls tasks from [producer] and hands finished results to [consumer]
   in strict submission order; at most [capacity] tasks are in flight,
   so an unbounded stream never materialises.  One mutex guards a
   pending queue (workers wait on [can_take]) and a reorder ring
   indexed [seq mod capacity] (the coordinator waits on [can_consume]
   for the next in-order slot).  The ring never wraps onto a live slot:
   in-flight seqs span less than [capacity], so their slots are
   distinct.  Worker [k] is spawned when task [k] is submitted, so a
   stream shorter than [jobs] starts one domain per task.  A failure
   parks the first exception in [failed]; workers drain out, and the
   caller re-raises after joining every domain. *)
let stream_domains ?wrap_worker ?on_stats ~capacity ~jobs f ~producer ~consumer
    =
  let m = Mutex.create () in
  let can_take = Condition.create () in
  let can_consume = Condition.create () in
  let pending = Queue.create () in
  let ring = Array.make capacity None in
  let closed = ref false in
  let failed = ref None in
  let stats = Array.make jobs None in
  let park e bt =
    (* under [m] *)
    if !failed = None then failed := Some (e, bt);
    Condition.broadcast can_take;
    Condition.signal can_consume
  in
  let task_loop w =
    let t_start = Unix.gettimeofday () in
    let tasks = ref 0 and busy = ref 0.0 in
    let rec loop () =
      Mutex.lock m;
      while Queue.is_empty pending && (not !closed) && !failed = None do
        Condition.wait can_take m
      done;
      if !failed <> None || Queue.is_empty pending then Mutex.unlock m
      else begin
        let seq, x = Queue.pop pending in
        Mutex.unlock m;
        let t0 = Unix.gettimeofday () in
        (match f x with
        | v ->
            busy := !busy +. (Unix.gettimeofday () -. t0);
            incr tasks;
            Mutex.lock m;
            ring.(seq mod capacity) <- Some v;
            Condition.signal can_consume;
            Mutex.unlock m
        | exception e ->
            busy := !busy +. (Unix.gettimeofday () -. t0);
            let bt = Printexc.get_raw_backtrace () in
            Mutex.lock m;
            park e bt;
            Mutex.unlock m);
        loop ()
      end
    in
    loop ();
    let wall = Unix.gettimeofday () -. t_start in
    stats.(w) <-
      Some
        {
          worker = w;
          tasks = !tasks;
          busy_s = !busy;
          idle_s = Float.max 0.0 (wall -. !busy);
        }
  in
  let worker w =
    (* [task_loop] cannot raise; anything escaping here came from the
       caller's [wrap_worker] and is propagated like a task failure. *)
    try
      match wrap_worker with
      | None -> task_loop w
      | Some wrap -> wrap w (fun () -> task_loop w)
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      Mutex.lock m;
      park e bt;
      Mutex.unlock m
  in
  let domains = ref [] in
  let submitted = ref 0 and consumed = ref 0 in
  let shutdown () =
    Mutex.lock m;
    closed := true;
    Condition.broadcast can_take;
    Mutex.unlock m;
    List.iter Domain.join !domains
  in
  (* The coordinator produces while there is room in the window, and
     otherwise blocks on the next in-order result.  Producer and
     consumer both run here, in the calling domain. *)
  let pump () =
    let ok () = !failed = None in
    while ok () && not (!closed && !consumed = !submitted) do
      if (not !closed) && !submitted - !consumed < capacity then begin
        match producer () with
        | None ->
            Mutex.lock m;
            closed := true;
            Condition.broadcast can_take;
            Mutex.unlock m
        | Some x ->
            Mutex.lock m;
            Queue.add (!submitted, x) pending;
            incr submitted;
            Condition.signal can_take;
            Mutex.unlock m;
            let w = !submitted - 1 in
            if w < jobs then
              domains := Domain.spawn (fun () -> worker w) :: !domains
      end
      else begin
        let slot = !consumed mod capacity in
        Mutex.lock m;
        while ring.(slot) = None && !failed = None do
          Condition.wait can_consume m
        done;
        let v = ring.(slot) in
        ring.(slot) <- None;
        Mutex.unlock m;
        match v with
        | Some v ->
            consumer !consumed v;
            incr consumed
        | None -> () (* failed: the while condition exits *)
      end
    done
  in
  (match pump () with
  | () -> shutdown ()
  | exception e ->
      (* producer/consumer raised in the calling domain: drain the
         workers before propagating, like a task failure. *)
      let bt = Printexc.get_raw_backtrace () in
      Mutex.lock m;
      park e bt;
      Mutex.unlock m;
      shutdown ());
  (match !failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  Option.iter
    (fun cb -> cb (Array.to_list stats |> List.filter_map Fun.id))
    on_stats;
  !consumed

let stream ?wrap_worker ?on_stats ?capacity ~jobs f ~producer ~consumer () =
  if jobs <= 1 then begin
    let rec go seq =
      match producer () with
      | None -> seq
      | Some x ->
          consumer seq (f x);
          go (seq + 1)
    in
    go 0
  end
  else
    let jobs = min jobs max_jobs in
    let capacity =
      max jobs (match capacity with Some c -> c | None -> 4 * jobs)
    in
    stream_domains ?wrap_worker ?on_stats ~capacity ~jobs f ~producer
      ~consumer

(* [map] is [stream] over the array with a window of the whole input:
   the array is already materialised, so backpressure would only stall
   the coordinator behind a slow head-of-line task.  Results arrive in
   submission order and land in their slot by [seq]. *)
let map ?wrap_worker ?on_stats ~jobs f input =
  let n = Array.length input in
  if jobs <= 1 || n <= 1 then Array.map f input
  else begin
    let results = Array.make n None in
    let next = ref 0 in
    let producer () =
      if !next = n then None
      else begin
        let x = input.(!next) in
        incr next;
        Some x
      end
    in
    ignore
      (stream ?wrap_worker ?on_stats ~capacity:n ~jobs:(min jobs n) f
         ~producer
         ~consumer:(fun seq v -> results.(seq) <- Some v)
         ());
    Array.map (function Some v -> v | None -> assert false) results
  end
