type result = { dist : int array; parent : int array }

let run view ~source =
  let g = View.graph view in
  let n = Graph.n_nodes g in
  let dist = Array.make n max_int and parent = Array.make n (-1) in
  if View.node_ok view source then begin
    dist.(source) <- 0;
    let q = Queue.create () in
    Queue.push source q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      View.iter_neighbors view u (fun v _ ->
          if dist.(v) = max_int then begin
            dist.(v) <- dist.(u) + 1;
            parent.(v) <- u;
            Queue.push v q
          end)
    done
  end;
  { dist; parent }

let reachable view s t =
  let r = run view ~source:s in
  r.dist.(t) < max_int
