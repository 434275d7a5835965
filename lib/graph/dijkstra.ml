let c_spt_scratch = Rtr_obs.Metrics.counter "spt.from_scratch"

module Workspace = Workspace

(* Liveness in a [View] mask: bit [i land 31] of word [i lsr 5]. *)
let[@inline] live words i =
  (Array.unsafe_get words (i lsr 5) lsr (i land 31)) land 1 <> 0

(* The relaxation loop, flat over the CSR arrays.  Growing a [From_root]
   tree crosses each arc out of the settled node [u]; growing a
   [To_root] tree extends a path that will cross it into [u] — so the
   direction only picks which per-arc cost array is read.

   The tree is canonical (each node's parent is its smallest-id
   neighbour on a shortest path) by the tie rule alone: a relaxation
   that matches [dist.(v)] from a smaller id rewrites the parent without
   a push.  Costs are positive, so every such neighbour has a strictly
   smaller distance and settles, and relaxes [v], before [v] settles;
   the queue's order among equal priorities is irrelevant.  The first
   pop of a node carries its final distance (a later, smaller label
   would need a relaxation from a node settled after it at a smaller
   distance), so [settled] alone skips stale entries.  [Workspace.touch]
   runs exactly when a node is labelled for the first time. *)
let run_into (ws : Workspace.t) view ~root ~direction =
  if View.node_ok view root then begin
    let g = View.graph view in
    let dist = ws.dist and parent_node = ws.parent_node
    and parent_link = ws.parent_link and settled = ws.settled
    and heap = ws.heap in
    let off = Graph.adj_offsets g and ngb = Graph.adj_targets g
    and lnk = Graph.adj_links g
    and cost =
      match (direction : Spt.direction) with
      | Spt.From_root -> Graph.adj_out_costs g
      | Spt.To_root -> Graph.adj_in_costs g
    in
    let node_words = View.node_mask view and link_words = View.link_mask view in
    dist.(root) <- 0;
    Workspace.touch ws root;
    Pqueue.push heap ~prio:0 ~tag:root;
    let pushes = ref 1 and pops = ref 0 in
    let next = ref (Pqueue.pop heap) in
    while !next >= 0 do
      let u = !next in
      incr pops;
      if not (Array.unsafe_get settled u) then begin
        Array.unsafe_set settled u true;
        let d = Array.unsafe_get dist u in
        for i = Array.unsafe_get off u to Array.unsafe_get off (u + 1) - 1 do
          let v = Array.unsafe_get ngb i and id = Array.unsafe_get lnk i in
          if
            (not (Array.unsafe_get settled v))
            && live link_words id && live node_words v
          then begin
            let cand = d + Array.unsafe_get cost i
            and dv = Array.unsafe_get dist v in
            if cand < dv then begin
              if dv = max_int then Workspace.touch ws v;
              Array.unsafe_set dist v cand;
              Array.unsafe_set parent_node v u;
              Array.unsafe_set parent_link v id;
              Pqueue.push heap ~prio:cand ~tag:v;
              incr pushes
            end
            else if cand = dv && u < Array.unsafe_get parent_node v then begin
              Array.unsafe_set parent_node v u;
              Array.unsafe_set parent_link v id
            end
          end
        done
      end;
      next := Pqueue.pop heap
    done;
    Pqueue.publish heap ~pushes:!pushes ~pops:!pops
  end

let spt ?workspace view ~root ?(direction = Spt.From_root) () =
  let g = View.graph view in
  let ws =
    match workspace with
    | Some ws ->
        Workspace.acquire ws g;
        ws
    | None ->
        Rtr_obs.Metrics.Counter.incr c_spt_scratch;
        Workspace.fresh g
  in
  run_into ws view ~root ~direction;
  {
    Spt.graph = g;
    root;
    direction;
    dist = ws.dist;
    parent_node = ws.parent_node;
    parent_link = ws.parent_link;
  }

let distance view ~src ~dst =
  let t = spt ~workspace:(Workspace.get ()) view ~root:src ~direction:Spt.From_root () in
  if Spt.reached t dst then Some (Spt.dist t dst) else None
