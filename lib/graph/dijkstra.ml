let c_spt_scratch = Rtr_obs.Metrics.counter "spt.from_scratch"

module Workspace = Workspace

(* The relaxation loop.  Growing a [From_root] tree crosses a link out
   of the settled node [u]; growing a [To_root] tree extends a path that
   will cross the link out of the new node [v].  [Workspace.touch] runs
   exactly when a node is labelled for the first time (its dist leaves
   max_int). *)
let run_into (ws : Workspace.t) view ~root ~direction =
  let g = View.graph view in
  let dist = ws.dist and parent_node = ws.parent_node
  and parent_link = ws.parent_link and settled = ws.settled
  and heap = ws.heap in
  if View.node_ok view root then begin
    dist.(root) <- 0;
    Workspace.touch ws root;
    Pqueue.push heap ~prio:0 ~tag:root;
    let rec drain () =
      match Pqueue.pop heap with
      | None -> ()
      | Some (d, u) ->
          if not settled.(u) && d = dist.(u) then begin
            settled.(u) <- true;
            View.iter_neighbors view u (fun v id ->
                if not settled.(v) then begin
                  let src =
                    match (direction : Spt.direction) with
                    | Spt.From_root -> u
                    | Spt.To_root -> v
                  in
                  let cand = d + Graph.cost g id ~src in
                  if
                    cand < dist.(v)
                    || (cand = dist.(v) && u < parent_node.(v))
                  then begin
                    if dist.(v) = max_int then Workspace.touch ws v;
                    dist.(v) <- cand;
                    parent_node.(v) <- u;
                    parent_link.(v) <- id;
                    Pqueue.push heap ~prio:cand ~tag:v
                  end
                end)
          end;
          drain ()
    in
    drain ()
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

let shortest_path view ~src ~dst =
  let t = spt ~workspace:(Workspace.get ()) view ~root:src ~direction:Spt.From_root () in
  Spt.path t dst

let distance view ~src ~dst =
  let t = spt ~workspace:(Workspace.get ()) view ~root:src ~direction:Spt.From_root () in
  if Spt.reached t dst then Some (Spt.dist t dst) else None
