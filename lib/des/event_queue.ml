type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }
let is_empty t = t.size = 0
let length t = t.size

let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && less t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && less t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let add t ~time payload =
  if Float.is_nan time || time < 0.0 then
    invalid_arg "Event_queue.add: bad time";
  let entry = { time; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  if t.size = Array.length t.heap then begin
    let cap = max 16 (2 * Array.length t.heap) in
    let heap = Array.make cap entry in
    Array.blit t.heap 0 heap 0 t.size;
    t.heap <- heap
  end;
  t.heap.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      sift_down t 0
    end;
    Some (top.time, top.payload)
  end
