let c_push = Rtr_obs.Metrics.counter "pqueue.push"
let c_pop = Rtr_obs.Metrics.counter "pqueue.pop"
let c_dial_push = Rtr_obs.Metrics.counter "pqueue.dial_push"
let c_dial_pop = Rtr_obs.Metrics.counter "pqueue.dial_pop"
let c_dial_selected = Rtr_obs.Metrics.counter "pqueue.dial_selected"
let c_heap_selected = Rtr_obs.Metrics.counter "pqueue.heap_selected"

(* Two queue disciplines behind one interface.

   Heap mode is the classic binary min-heap on [(prio, tag)] pairs and
   works for any integer priorities.

   Dial mode (Dial's algorithm) is a bucket queue for priorities known
   to lie in [0, bound]: bucket [p] holds the tags pushed with priority
   [p] as a LIFO list threaded through a bump-allocated slot pool.  A
   cursor [cur] scans the buckets upward; a push below the cursor pulls
   it back down, so the structure is a correct min-queue even when
   pushes interleave with pops off the monotone Dijkstra path.  [clear]
   is O(touched): only buckets made non-empty since the last clear (the
   [dirty] stack) are reset.

   Shortest-path workloads on IGP-style graphs have small integer
   costs, so distances are bounded by [max_cost * (n - 1)] and every
   push/pop is a few array writes instead of a log-depth sift.

   Neither [push] nor [pop] touches a counter or allocates: the caller
   tallies its pushes and pops in locals and hands the totals to
   [publish] once per run. *)

type t = {
  (* Binary-heap storage (heap mode). *)
  mutable prio : int array;
  mutable tag : int array;
  mutable size : int;  (* live entries, in either mode *)
  (* Dial storage (dial mode). *)
  mutable dial : bool;
  mutable bound : int;  (* largest pushable priority in dial mode *)
  mutable head : int array;  (* bucket -> first pool slot, -1 if empty *)
  mutable cur : int;  (* no live entry has priority < cur *)
  mutable pool_tag : int array;
  mutable pool_next : int array;
  mutable pool_size : int;
  mutable dirty : int array;  (* buckets made non-empty since clear *)
  mutable n_dirty : int;
}

let initial_capacity = 16

(* Buckets cost O(bound) memory per queue; beyond this the log-depth
   heap is the better trade (and weighted graphs like Rocketfuel, whose
   cost bound can reach millions, must not allocate such arrays). *)
let max_dial_bound = 65_535

let create () =
  {
    prio = Array.make initial_capacity 0;
    tag = Array.make initial_capacity 0;
    size = 0;
    dial = false;
    bound = -1;
    head = [||];
    cur = 0;
    pool_tag = [||];
    pool_next = [||];
    pool_size = 0;
    dirty = [||];
    n_dirty = 0;
  }

(* --- heap mode ------------------------------------------------------ *)

let less h i j =
  h.prio.(i) < h.prio.(j) || (h.prio.(i) = h.prio.(j) && h.tag.(i) < h.tag.(j))

let swap h i j =
  let p = h.prio.(i) and t = h.tag.(i) in
  h.prio.(i) <- h.prio.(j);
  h.tag.(i) <- h.tag.(j);
  h.prio.(j) <- p;
  h.tag.(j) <- t

let grow h =
  let cap = Array.length h.prio in
  let prio = Array.make (2 * cap) 0 and tag = Array.make (2 * cap) 0 in
  Array.blit h.prio 0 prio 0 h.size;
  Array.blit h.tag 0 tag 0 h.size;
  h.prio <- prio;
  h.tag <- tag

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less h i parent then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && less h l !smallest then smallest := l;
  if r < h.size && less h r !smallest then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let heap_push h ~prio ~tag =
  if h.size = Array.length h.prio then grow h;
  h.prio.(h.size) <- prio;
  h.tag.(h.size) <- tag;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let heap_pop h =
  let t = h.tag.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.prio.(0) <- h.prio.(h.size);
    h.tag.(0) <- h.tag.(h.size);
    sift_down h 0
  end;
  t

(* --- dial mode ------------------------------------------------------ *)

let dial_push h ~prio ~tag =
  if prio < 0 || prio > h.bound then
    invalid_arg
      (Printf.sprintf "Pqueue.push: priority %d outside dial bound [0,%d]"
         prio h.bound);
  (let cap = Array.length h.pool_tag in
   if h.pool_size = cap then begin
     let bigger = max initial_capacity (2 * cap) in
     let pt = Array.make bigger 0 and pn = Array.make bigger (-1) in
     Array.blit h.pool_tag 0 pt 0 cap;
     Array.blit h.pool_next 0 pn 0 cap;
     h.pool_tag <- pt;
     h.pool_next <- pn
   end);
  let s = h.pool_size in
  h.pool_size <- s + 1;
  Array.unsafe_set h.pool_tag s tag;
  let first = Array.unsafe_get h.head prio in
  if first = -1 then begin
    (* Bucket becomes non-empty: remember it for O(touched) clear. *)
    (let len = Array.length h.dirty in
     if h.n_dirty = len then begin
       let bigger = Array.make (max initial_capacity (2 * len)) 0 in
       Array.blit h.dirty 0 bigger 0 len;
       h.dirty <- bigger
     end);
    h.dirty.(h.n_dirty) <- prio;
    h.n_dirty <- h.n_dirty + 1
  end;
  Array.unsafe_set h.pool_next s first;
  Array.unsafe_set h.head prio s;
  if prio < h.cur then h.cur <- prio;
  h.size <- h.size + 1

let dial_pop h =
  while Array.unsafe_get h.head h.cur = -1 do
    h.cur <- h.cur + 1
  done;
  let s = Array.unsafe_get h.head h.cur in
  Array.unsafe_set h.head h.cur (Array.unsafe_get h.pool_next s);
  h.size <- h.size - 1;
  Array.unsafe_get h.pool_tag s

(* --- shared interface ----------------------------------------------- *)

let push h ~prio ~tag =
  if h.dial then dial_push h ~prio ~tag else heap_push h ~prio ~tag

let pop h = if h.size = 0 then -1 else if h.dial then dial_pop h else heap_pop h

let publish h ~pushes ~pops =
  Rtr_obs.Metrics.Counter.add c_push pushes;
  Rtr_obs.Metrics.Counter.add c_pop pops;
  if h.dial then begin
    Rtr_obs.Metrics.Counter.add c_dial_push pushes;
    Rtr_obs.Metrics.Counter.add c_dial_pop pops
  end

let clear h =
  if h.dial then begin
    for i = 0 to h.n_dirty - 1 do
      h.head.(h.dirty.(i)) <- -1
    done;
    h.n_dirty <- 0;
    h.pool_size <- 0;
    h.cur <- 0
  end;
  h.size <- 0

let configure h ~bound =
  clear h;
  if bound >= 0 && bound <= max_dial_bound then begin
    Rtr_obs.Metrics.Counter.incr c_dial_selected;
    h.dial <- true;
    h.bound <- bound;
    h.cur <- 0;
    if Array.length h.head < bound + 1 then h.head <- Array.make (bound + 1) (-1)
  end
  else begin
    Rtr_obs.Metrics.Counter.incr c_heap_selected;
    h.dial <- false;
    h.bound <- -1
  end

let dial_bound_for ~max_cost ~n_nodes =
  if n_nodes <= 1 then 0
  else if max_cost > max_dial_bound / (n_nodes - 1) then -1
  else max_cost * (n_nodes - 1)
