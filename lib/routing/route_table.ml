module Graph = Rtr_graph.Graph
module Dijkstra = Rtr_graph.Dijkstra
module View = Rtr_graph.View
module Spt = Rtr_graph.Spt

type t = {
  graph : Graph.t;
  (* [next.(dst).(src)] and [dist_to.(dst).(src)] *)
  next : int array array;
  next_lnk : int array array;
  dist_to : int array array;
}

let compute view =
  let graph = View.graph view in
  let n = Graph.n_nodes graph in
  let next = Array.make n [||]
  and next_lnk = Array.make n [||]
  and dist_to = Array.make n [||] in
  (* One SPT per destination on the domain's workspace, copied out as
     the destination's rows: Dijkstra's tie-break already hangs each
     source off its smallest-id neighbour on a shortest path, which is
     the table's next-hop rule. *)
  let workspace = Dijkstra.Workspace.get () in
  for dst = 0 to n - 1 do
    let spt =
      Spt.copy (Dijkstra.spt ~workspace view ~root:dst ~direction:Spt.To_root ())
    in
    next.(dst) <- spt.Spt.parent_node;
    next_lnk.(dst) <- spt.Spt.parent_link;
    dist_to.(dst) <- spt.Spt.dist
  done;
  { graph; next; next_lnk; dist_to }

let graph t = t.graph

let next_hop t ~src ~dst =
  let v = t.next.(dst).(src) in
  if v = -1 then None else Some v

let next_link t ~src ~dst =
  let l = t.next_lnk.(dst).(src) in
  if l = -1 then None else Some l

let dist t ~src ~dst = t.dist_to.(dst).(src)
let next_row t ~dst = t.next.(dst)
let link_row t ~dst = t.next_lnk.(dst)

let default_path t ~src ~dst =
  if src = dst then Some (Rtr_graph.Path.of_nodes [ src ])
  else if t.next.(dst).(src) = -1 then None
  else begin
    let rec walk acc u =
      if u = dst then List.rev (u :: acc)
      else walk (u :: acc) t.next.(dst).(u)
    in
    Some (Rtr_graph.Path.of_nodes (walk [] src))
  end

let equal a b =
  a.graph == b.graph && a.next = b.next && a.next_lnk = b.next_lnk
  && a.dist_to = b.dist_to
