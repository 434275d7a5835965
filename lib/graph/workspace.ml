(* One scratch arena per domain: the label arrays Dijkstra writes and
   one persistent heap.  The reset discipline is lazy and O(touched):
   every slot a run dirties is recorded on the [touched] stack, and
   [acquire] (the start of the NEXT run) restores those slots to the
   rest state (dist = max_int, parents = -1, unsettled, heap empty).
   Runs therefore never pay an O(n) clear, and a borrowed result stays
   readable until the next workspace operation on the same domain.

   Library-internal module: the outside world reaches it through
   [Dijkstra.Workspace], which hides the fields. *)

let c_ws_alloc = Rtr_obs.Metrics.counter "spt.ws_alloc"
let c_ws_reuse = Rtr_obs.Metrics.counter "spt.ws_reuse"

type t = {
  mutable n : int;  (* node capacity; -1 until first acquire *)
  mutable dist : int array;
  mutable parent_node : int array;
  mutable parent_link : int array;
  mutable settled : bool array;
  (* Dirty stack: which node slots the current run has written. *)
  mutable touched : int array;
  mutable n_touched : int;
  heap : Pqueue.t;
}

let create () =
  {
    n = -1;
    dist = [||];
    parent_node = [||];
    parent_link = [||];
    settled = [||];
    touched = [||];
    n_touched = 0;
    heap = Pqueue.create ();
  }

let slot : t Rtr_util.Domain_local.t = Rtr_util.Domain_local.make create
let get () = Rtr_util.Domain_local.get slot

(* A run labels each node at most once, so the n-slot stack never
   overflows. *)
let[@inline] touch ws v =
  ws.touched.(ws.n_touched) <- v;
  ws.n_touched <- ws.n_touched + 1

(* Undo the previous run's writes (lazy reset). *)
let flush ws =
  for i = 0 to ws.n_touched - 1 do
    let v = ws.touched.(i) in
    ws.dist.(v) <- max_int;
    ws.parent_node.(v) <- -1;
    ws.parent_link.(v) <- -1;
    ws.settled.(v) <- false
  done;
  ws.n_touched <- 0;
  Pqueue.clear ws.heap

(* Retarget the persistent queue at [g]: dial buckets when the graph's
   cost bound is small (IGP-style integer weights), binary heap
   otherwise. *)
let select_queue ws g =
  Pqueue.configure ws.heap
    ~bound:
      (Pqueue.dial_bound_for ~max_cost:(Graph.max_cost g)
         ~n_nodes:(Graph.n_nodes g))

(* Fresh rest-state arrays for [g]'s node count. *)
let size ws g =
  let n = Graph.n_nodes g in
  ws.n <- n;
  ws.dist <- Array.make n max_int;
  ws.parent_node <- Array.make n (-1);
  ws.parent_link <- Array.make n (-1);
  ws.settled <- Array.make n false;
  ws.touched <- Array.make n 0;
  ws.n_touched <- 0;
  select_queue ws g

(* An arena of its own for one owned run: not the domain's, so neither
   arena counter moves. *)
let fresh g =
  let ws = create () in
  size ws g;
  ws

let acquire ws g =
  let n = Graph.n_nodes g in
  if ws.n = n then begin
    Rtr_obs.Metrics.Counter.incr c_ws_reuse;
    flush ws;
    select_queue ws g
  end
  else begin
    Rtr_obs.Metrics.Counter.incr c_ws_alloc;
    Rtr_obs.Trace.with_ "spt.ws.alloc"
      ~attrs:[ ("n", string_of_int n) ]
    @@ fun () -> size ws g
  end
