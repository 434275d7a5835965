(* Traversal cost of a link in the metric direction of the tree: growing
   a [From_root] tree crosses the link out of the settled node [u];
   growing a [To_root] tree extends a path that will cross the link out
   of the new node [v]. *)
let step_cost cost ~direction ~settled ~next link =
  match (direction : Spt.direction) with
  | Spt.From_root -> cost link ~src:settled
  | Spt.To_root ->
      ignore settled;
      cost link ~src:next

let c_spt_scratch = Rtr_obs.Metrics.counter "spt.from_scratch"

module Workspace = Workspace

(* The relaxation loop, shared by the owned and workspace paths.
   [touch] is called exactly when a node is labelled for the first time
   (its dist leaves max_int); [ignore] for owned arrays. *)
let run_into ~dist ~parent_node ~parent_link ~settled ~heap ~touch view ~root
    ~direction ~cost =
  if View.node_ok view root then begin
    dist.(root) <- 0;
    touch root;
    Pqueue.push heap ~prio:0 ~tag:root;
    let rec drain () =
      match Pqueue.pop heap with
      | None -> ()
      | Some (d, u) ->
          if not settled.(u) && d = dist.(u) then begin
            settled.(u) <- true;
            View.iter_neighbors view u (fun v id ->
                if not settled.(v) then begin
                  let cand = d + step_cost cost ~direction ~settled:u ~next:v id in
                  if
                    cand < dist.(v)
                    || (cand = dist.(v) && u < parent_node.(v))
                  then begin
                    if dist.(v) = max_int then touch v;
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

let spt ?workspace view ~root ?(direction = Spt.From_root) ?cost () =
  let g = View.graph view in
  (* The graph's cost bound selects the queue discipline (see
     [Pqueue]); a custom cost function can produce any priorities, so
     it always gets the heap. *)
  let custom_cost = Option.is_some cost in
  let cost =
    match cost with Some c -> c | None -> fun id ~src -> Graph.cost g id ~src
  in
  match workspace with
  | None ->
      Rtr_obs.Metrics.Counter.incr c_spt_scratch;
      let n = Graph.n_nodes g in
      let dist = Array.make n max_int in
      let parent_node = Array.make n (-1) in
      let parent_link = Array.make n (-1) in
      let settled = Array.make n false in
      let heap =
        if custom_cost then Pqueue.create ()
        else
          Pqueue.create_bounded
            ~bound:
              (Pqueue.dial_bound_for ~max_cost:(Graph.max_cost g) ~n_nodes:n)
      in
      run_into ~dist ~parent_node ~parent_link ~settled ~heap
        ~touch:(fun _ -> ()) view ~root ~direction ~cost;
      { Spt.graph = g; root; direction; dist; parent_node; parent_link }
  | Some ws ->
      Workspace.acquire ws g;
      if custom_cost then Pqueue.configure ws.Workspace.heap ~bound:(-1);
      run_into ~dist:ws.Workspace.dist ~parent_node:ws.Workspace.parent_node
        ~parent_link:ws.Workspace.parent_link ~settled:ws.Workspace.settled
        ~heap:ws.Workspace.heap
        ~touch:(fun v -> Workspace.touch ws v)
        view ~root ~direction ~cost;
      {
        Spt.graph = g;
        root;
        direction;
        dist = ws.Workspace.dist;
        parent_node = ws.Workspace.parent_node;
        parent_link = ws.Workspace.parent_link;
      }

let shortest_path view ~src ~dst =
  let t = spt ~workspace:(Workspace.get ()) view ~root:src ~direction:Spt.From_root () in
  Spt.path t dst

let distance view ~src ~dst =
  let t = spt ~workspace:(Workspace.get ()) view ~root:src ~direction:Spt.From_root () in
  if Spt.reached t dst then Some (Spt.dist t dst) else None
