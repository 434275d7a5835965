(* Selection-scan Dijkstra: no priority queue, no workspace, no CSR
   loop; the view is read only through [View.node_ok]/[View.link_ok]. *)

module Graph = Rtr_graph.Graph
module View = Rtr_graph.View
module Spt = Rtr_graph.Spt

let spt view ~root ~direction =
  let g = View.graph view in
  let n = Graph.n_nodes g in
  let live u v id =
    View.node_ok view u && View.node_ok view v && View.link_ok view id
  in
  (* The hop between [near] (closer to the root) and [far], costed in
     the tree's direction. *)
  let hop id ~near ~far =
    Graph.cost g id ~src:(if direction = Spt.From_root then near else far)
  in
  let dist = Array.make n max_int and settled = Array.make n false in
  if View.node_ok view root then dist.(root) <- 0;
  let rec settle () =
    let u = ref (-1) in
    for v = 0 to n - 1 do
      if (not settled.(v)) && dist.(v) < max_int
         && (!u < 0 || dist.(v) < dist.(!u))
      then u := v
    done;
    let u = !u in
    if u >= 0 then begin
      settled.(u) <- true;
      Graph.iter_neighbors g u (fun v id ->
          if live u v id then
            dist.(v) <- min dist.(v) (dist.(u) + hop id ~near:u ~far:v));
      settle ()
    end
  in
  settle ();
  (* The canonical tree: each reached node hangs off its smallest-id
     live neighbour on a shortest path. *)
  let parent_node = Array.make n (-1) and parent_link = Array.make n (-1) in
  for v = 0 to n - 1 do
    if v <> root && dist.(v) < max_int then
      Graph.iter_neighbors g v (fun u id ->
          if live u v id && dist.(u) < max_int
             && dist.(u) + hop id ~near:u ~far:v = dist.(v)
             && (parent_node.(v) < 0 || u < parent_node.(v))
          then begin
            parent_node.(v) <- u;
            parent_link.(v) <- id
          end)
  done;
  { Spt.graph = g; root; direction; dist; parent_node; parent_link }
