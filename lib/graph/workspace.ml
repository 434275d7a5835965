(* One scratch arena per domain: the label arrays Dijkstra writes, the
   flag arrays incremental repair needs, and one persistent heap.  The
   reset discipline is lazy and O(touched): every slot a run dirties is
   recorded on the [touched]/[ltouched] stacks, and [acquire] (the
   start of the NEXT run) restores those slots to the rest state
   (dist = max_int, parents = -1, flags = false, heap empty).  Runs
   therefore never pay an O(n) clear, and a borrowed result stays
   readable until the next workspace operation on the same domain.

   Library-internal module: the outside world reaches it through
   [Dijkstra.Workspace], which hides the fields. *)

let c_ws_alloc = Rtr_obs.Metrics.counter "spt.ws_alloc"
let c_ws_reuse = Rtr_obs.Metrics.counter "spt.ws_reuse"

type t = {
  mutable n : int;  (* node capacity; -1 until first acquire *)
  mutable m : int;  (* link capacity *)
  mutable dist : int array;
  mutable parent_node : int array;
  mutable parent_link : int array;
  mutable settled : bool array;
  (* Incremental-repair scratch (unused by plain [Dijkstra.spt] runs). *)
  mutable mark : bool array;  (* cut-status memoised for this node *)
  mutable affected : bool array;
  mutable node_dead : bool array;
  mutable link_dead : bool array;
  (* Dirty stacks: which node/link slots the current run has written. *)
  mutable touched : int array;
  mutable n_touched : int;
  mutable ltouched : int array;
  mutable n_ltouched : int;
  heap : Pqueue.t;
}

let create () =
  {
    n = -1;
    m = -1;
    dist = [||];
    parent_node = [||];
    parent_link = [||];
    settled = [||];
    mark = [||];
    affected = [||];
    node_dead = [||];
    link_dead = [||];
    touched = [||];
    n_touched = 0;
    ltouched = [||];
    n_ltouched = 0;
    heap = Pqueue.create ();
  }

let slot : t Rtr_util.Domain_local.t = Rtr_util.Domain_local.make create
let get () = Rtr_util.Domain_local.get slot

let[@inline] touch ws v =
  (let len = Array.length ws.touched in
   if ws.n_touched = len then begin
     let bigger = Array.make (max 8 (2 * len)) 0 in
     Array.blit ws.touched 0 bigger 0 len;
     ws.touched <- bigger
   end);
  Array.unsafe_set ws.touched ws.n_touched v;
  ws.n_touched <- ws.n_touched + 1

let touch_link ws id =
  (let len = Array.length ws.ltouched in
   if ws.n_ltouched = len then begin
     let bigger = Array.make (max 8 (2 * len)) 0 in
     Array.blit ws.ltouched 0 bigger 0 len;
     ws.ltouched <- bigger
   end);
  ws.ltouched.(ws.n_ltouched) <- id;
  ws.n_ltouched <- ws.n_ltouched + 1

(* Undo the previous run's writes (lazy reset; duplicates on the stacks
   are harmless). *)
let flush ws =
  for i = 0 to ws.n_touched - 1 do
    let v = ws.touched.(i) in
    ws.dist.(v) <- max_int;
    ws.parent_node.(v) <- -1;
    ws.parent_link.(v) <- -1;
    ws.settled.(v) <- false;
    ws.mark.(v) <- false;
    ws.affected.(v) <- false;
    ws.node_dead.(v) <- false
  done;
  ws.n_touched <- 0;
  for i = 0 to ws.n_ltouched - 1 do
    ws.link_dead.(ws.ltouched.(i)) <- false
  done;
  ws.n_ltouched <- 0;
  Pqueue.clear ws.heap

(* Retarget the persistent queue at [g]: dial buckets when the graph's
   cost bound is small (IGP-style integer weights), binary heap
   otherwise.  Runs with a custom cost function must override this with
   [Pqueue.configure ~bound:(-1)] after acquiring — the graph bound
   says nothing about their priorities. *)
let select_queue ws g =
  Pqueue.configure ws.heap
    ~bound:
      (Pqueue.dial_bound_for ~max_cost:(Graph.max_cost g)
         ~n_nodes:(Graph.n_nodes g))

let acquire ws g =
  let n = Graph.n_nodes g and m = Graph.n_links g in
  if ws.n = n && ws.m = m then begin
    Rtr_obs.Metrics.Counter.incr c_ws_reuse;
    flush ws;
    select_queue ws g
  end
  else begin
    Rtr_obs.Metrics.Counter.incr c_ws_alloc;
    Rtr_obs.Trace.with_ "spt.ws.alloc"
      ~attrs:[ ("n", string_of_int n); ("m", string_of_int m) ]
    @@ fun () ->
    ws.n <- n;
    ws.m <- m;
    ws.dist <- Array.make n max_int;
    ws.parent_node <- Array.make n (-1);
    ws.parent_link <- Array.make n (-1);
    ws.settled <- Array.make n false;
    ws.mark <- Array.make n false;
    ws.affected <- Array.make n false;
    ws.node_dead <- Array.make n false;
    ws.link_dead <- Array.make (max m 1) false;
    ws.touched <- Array.make n 0;
    ws.n_touched <- 0;
    ws.ltouched <- Array.make (max m 1) 0;
    ws.n_ltouched <- 0;
    Pqueue.clear ws.heap;
    select_queue ws g
  end
