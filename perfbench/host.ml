(* Host-speed reference.

   The host's speed drifts by tens of percent over seconds, so a raw
   wall-clock figure from a short run measures the host as much as the
   program.  A fixed reference kernel runs at fixed points through
   set-up and the timed phase (after every set-up and every timed
   block), and every timing is scaled by [nominal_ns / median kernel
   duration]: the figure reads as the time a host running at nominal
   speed would have taken.

   The kernel is the benchmark's own code and calls nothing in the
   libraries under test, so no change to them can speed it up: an
   allocation-free Dijkstra with an array binary heap over a fixed
   random graph (2,000 nodes, out-degree 6, about 0.4 MB, L2-resident).
   Its branchy, data-dependent loads slow down with the program's when
   a co-tenant contends for the core's caches, which a pure ALU loop
   does not see; allocating nothing keeps it independent of the
   program's heap. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ---- the reference kernel ---- *)

let n_nodes = 2000
let degree = 6

let graph =
  let st = Random.State.make [| 0x5eed |] in
  let edges f = Array.init (n_nodes * degree) (fun _ -> f ()) in
  let target = edges (fun () -> Random.State.int st n_nodes) in
  let weight = edges (fun () -> 1 + Random.State.int st 20) in
  (target, weight)

let dist = Array.make n_nodes 0
let heap_key = Array.make ((n_nodes * degree) + 1) 0
let heap_node = Array.make ((n_nodes * degree) + 1) 0

let dijkstra src =
  let target, weight = graph in
  Array.fill dist 0 n_nodes max_int;
  let n = ref 0 in
  let push k v =
    let i = ref !n in
    incr n;
    while !i > 0 && heap_key.((!i - 1) / 2) > k do
      let p = (!i - 1) / 2 in
      heap_key.(!i) <- heap_key.(p);
      heap_node.(!i) <- heap_node.(p);
      i := p
    done;
    heap_key.(!i) <- k;
    heap_node.(!i) <- v
  in
  dist.(src) <- 0;
  push 0 src;
  while !n > 0 do
    let d = heap_key.(0) and u = heap_node.(0) in
    decr n;
    let lk = heap_key.(!n) and lv = heap_node.(!n) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !n then sifting := false
      else begin
        let c =
          if l + 1 < !n && heap_key.(l + 1) < heap_key.(l) then l + 1 else l
        in
        if heap_key.(c) < lk then begin
          heap_key.(!i) <- heap_key.(c);
          heap_node.(!i) <- heap_node.(c);
          i := c
        end
        else sifting := false
      end
    done;
    heap_key.(!i) <- lk;
    heap_node.(!i) <- lv;
    if d = dist.(u) then
      for e = u * degree to (u * degree) + degree - 1 do
        let v = target.(e) in
        let nd = d + weight.(e) in
        if nd < dist.(v) then begin
          dist.(v) <- nd;
          push nd v
        end
      done
  done;
  ignore (Sys.opaque_identity dist)

let kernel () = dijkstra 1

(* The reference kernel's duration on the reference host (a 2-vCPU
   x86-64 container); fixed once, never re-calibrated, so normalised
   figures from different commits stay comparable. *)
let nominal_ns = 450_000.

(* Growable float buffer. *)
module Buf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 64 0.; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let length b = b.n
  let to_array b = Array.sub b.a 0 b.n
end

let samples = Buf.create ()

let duration f =
  let t0 = now_ns () in
  f ();
  float_of_int (now_ns () - t0)

(* Middle of three passes, so an interrupt in one pass (or the first,
   cache-cold pass) does not skew the sample. *)
let middle_of_3 f =
  let a = duration f in
  let b = duration f in
  let c = duration f in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

let probe () = Buf.push samples (middle_of_3 kernel)

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let r = p *. float_of_int (n - 1) in
    let i = truncate r in
    let f = r -. float_of_int i in
    if i + 1 < n then (s.(i) *. (1. -. f)) +. (s.(i + 1) *. f) else s.(i)
  end

let median xs = percentile xs 0.5

(* Median kernel duration over the probes [lo, hi) (default: all). *)
let ref_ns ?(range = (0, max_int)) () =
  if Buf.length samples = 0 then probe ();
  let lo, hi = range in
  let hi = min hi (Buf.length samples) in
  let a = Buf.to_array samples in
  median (if hi > lo then Array.sub a lo (hi - lo) else a)

(* Multiply a raw duration measured while the probes [range] were
   taken by this to normalise it. *)
let factor ?range () = nominal_ns /. ref_ns ?range ()
