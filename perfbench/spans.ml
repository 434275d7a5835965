(* The benchmark's own spans, recorded around its calls into the
   libraries when a run is traced.  Spans stay in memory and are written
   out when the run ends; [fold] turns them into self time per span
   name (a span's duration minus the time its child spans cover). *)

type span = { name : string; t0 : int; mutable t1 : int; parent : int }

let enabled = ref false
let spans : span array ref = ref [||]
let n = ref 0
let stack = ref []

let push s =
  if !n = Array.length !spans then begin
    let a = Array.make (max 1024 (2 * !n)) s in
    Array.blit !spans 0 a 0 !n;
    spans := a
  end;
  !spans.(!n) <- s;
  incr n

let with_ name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with [] -> -1 | p :: _ -> p in
    let idx = !n in
    push { name; t0 = Host.now_ns (); t1 = 0; parent };
    stack := idx :: !stack;
    let finish () =
      !spans.(idx).t1 <- Host.now_ns ();
      stack := List.tl !stack
    in
    Fun.protect ~finally:finish f
  end

type self = { sname : string; calls : int; total_ns : float; self_ns : float }

(* Per span name: calls, total and self time (raw nanoseconds), sorted
   by self time, heaviest first. *)
let fold () =
  let child = Array.make !n 0 in
  for i = 0 to !n - 1 do
    let s = !spans.(i) in
    if s.parent >= 0 then child.(s.parent) <- child.(s.parent) + (s.t1 - s.t0)
  done;
  let tbl = Hashtbl.create 32 in
  for i = 0 to !n - 1 do
    let s = !spans.(i) in
    let dur = s.t1 - s.t0 in
    let c, t, sf =
      Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0, 0)
    in
    Hashtbl.replace tbl s.name (c + 1, t + dur, sf + dur - child.(i))
  done;
  Hashtbl.fold
    (fun sname (calls, t, sf) acc ->
      { sname; calls; total_ns = float_of_int t; self_ns = float_of_int sf }
      :: acc)
    tbl []
  |> List.sort (fun a b -> Float.compare b.self_ns a.self_ns)

let rec has_ancestor name i =
  let p = !spans.(i).parent in
  p >= 0 && (!spans.(p).name = name || has_ancestor name p)

(* Durations (ns) of every span with this name, in recording order;
   with [under], only spans nested in a span of that name. *)
let durations ?under name =
  let acc = ref [] in
  for i = !n - 1 downto 0 do
    let s = !spans.(i) in
    let nested = Option.fold ~none:true ~some:(fun u -> has_ancestor u i) under in
    if s.name = name && nested then acc := float_of_int (s.t1 - s.t0) :: !acc
  done;
  Array.of_list !acc

let total_ns ?under name = Array.fold_left ( +. ) 0. (durations ?under name)

let write path =
  let oc = open_out path in
  for i = 0 to !n - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc
      "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%d,\"dur_ns\":%d}\n" i
      s.parent s.name s.t0 (s.t1 - s.t0)
  done;
  close_out oc
