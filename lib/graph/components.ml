type t = { id : int array; count : int }

let compute view =
  let g = View.graph view in
  let n = Graph.n_nodes g in
  let id = Array.make n (-1) in
  let count = ref 0 in
  let q = Queue.create () in
  for s = 0 to n - 1 do
    if View.node_ok view s && id.(s) = -1 then begin
      let c = !count in
      incr count;
      id.(s) <- c;
      Queue.push s q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        View.iter_neighbors view u (fun v _ ->
            if id.(v) = -1 then begin
              id.(v) <- c;
              Queue.push v q
            end)
      done
    end
  done;
  { id; count = !count }

let count t = t.count
let id_of t v = t.id.(v)
let same t u v = t.id.(u) >= 0 && t.id.(u) = t.id.(v)

let sizes t =
  let s = Array.make t.count 0 in
  Array.iter (fun c -> if c >= 0 then s.(c) <- s.(c) + 1) t.id;
  s

let is_connected g = count (compute (View.full g)) <= 1
