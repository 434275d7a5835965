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

(* FCP from scratch: every round runs [spt] over the pre-failure map
   minus the links carried so far, and nothing is shared between
   rounds or routes. *)
let fcp topo damage ~initiator ~dst =
  let module Damage = Rtr_failure.Damage in
  let module Fcp = Rtr_baselines.Fcp in
  let g = Rtr_topo.Topology.graph topo in
  let full = View.full g in
  let unreachable v id = Damage.neighbor_unreachable damage v id in
  let finish ~delivered ~discarded_at ~carried ~calcs ~journey ~hops =
    {
      Fcp.delivered;
      journey = Rtr_graph.Path.of_nodes (List.rev journey);
      sp_calculations = calcs;
      carried_links = carried;
      hops = List.rev hops;
      discarded_at;
    }
  in
  (* [carried] in insertion order; [journey] and [hops] newest first. *)
  let rec round at ~carried ~calcs ~journey ~hops =
    let carried =
      Array.fold_left
        (fun acc (v, id) ->
          if unreachable v id && not (List.mem id acc) then acc @ [ id ]
          else acc)
        carried (Graph.neighbors g at)
    in
    let calcs = calcs + 1 in
    let tree =
      spt (View.remove_links full carried) ~root:at ~direction:Spt.From_root
    in
    match Spt.path tree dst with
    | None ->
        finish ~delivered:false ~discarded_at:(Some at) ~carried ~calcs
          ~journey ~hops
    | Some path ->
        let route_hops = Rtr_graph.Path.hops path in
        let n_failed = List.length carried in
        let rec walk idx journey hops = function
          | u :: v :: rest ->
              let id = Option.get (Graph.find_link g u v) in
              if unreachable v id then round u ~carried ~calcs ~journey ~hops
              else
                let header_bytes =
                  Rtr_routing.Header.fcp ~n_failed
                    ~route_hops:(route_hops - idx)
                in
                let hops = { Fcp.from_ = u; to_ = v; header_bytes } :: hops in
                if v = dst then
                  finish ~delivered:true ~discarded_at:None ~carried ~calcs
                    ~journey:(v :: journey) ~hops
                else walk (idx + 1) (v :: journey) hops (v :: rest)
          | [ _ ] | [] ->
              finish ~delivered:true ~discarded_at:None ~carried ~calcs
                ~journey ~hops
        in
        walk 0 journey hops (Rtr_graph.Path.nodes path)
  in
  round initiator ~carried:[] ~calcs:0 ~journey:[ initiator ] ~hops:[]
