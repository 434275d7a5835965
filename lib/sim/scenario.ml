module Graph = Rtr_graph.Graph
module Damage = Rtr_failure.Damage
module Route_table = Rtr_routing.Route_table

type kind = Recoverable | Irrecoverable

type case = {
  initiator : Graph.node;
  trigger : Graph.node;
  dst : Graph.node;
  kind : kind;
  shortest_after : int option;
}

type t = {
  topo : Rtr_topo.Topology.t;
  table : Rtr_routing.Route_table.t;
  area : Rtr_failure.Area.t;
  damage : Rtr_failure.Damage.t;
  cases : case list;
}

(* The one definition of a test case: (initiator, dst) is one exactly
   when the initiator is live and its default next hop towards dst is
   locally unreachable.  [spt] is the initiator's damaged-graph SPT,
   the case's optimality yardstick, forced only once the pair is known
   to be a case.  Inlined, with the liveness test last, because
   [cases_of_damage] asks this of every ordered pair and almost all of
   them fail at the route-table read. *)
let[@inline] case_at g table damage ~spt ~initiator ~dst =
  if dst = initiator then None
  else
    match Route_table.next_link table ~src:initiator ~dst with
    | None -> None
    | Some link ->
        let trigger = Graph.other_end g link initiator in
        if
          not
            (Damage.neighbor_unreachable damage trigger link
            && Damage.node_ok damage initiator)
        then None
        else
          let spt = Lazy.force spt in
          let reached =
            Damage.node_ok damage dst && Rtr_graph.Spt.reached spt dst
          in
          Some
            {
              initiator;
              trigger;
              dst;
              kind = (if reached then Recoverable else Irrecoverable);
              shortest_after =
                (if reached then Some (Rtr_graph.Spt.dist spt dst) else None);
            }

(* The tree lives in the domain workspace, so it stays valid only until
   the next workspace Dijkstra; callers read it before running one. *)
let workspace_spt damage ~root =
  lazy
    (Rtr_graph.Dijkstra.spt
       ~workspace:(Rtr_graph.Dijkstra.Workspace.get ())
       (Damage.view damage) ~root ())

let find_case topo table damage ~initiator ~dst =
  case_at (Rtr_topo.Topology.graph topo) table damage
    ~spt:(workspace_spt damage ~root:initiator)
    ~initiator ~dst

let cases_of_damage topo table damage =
  let g = Rtr_topo.Topology.graph topo in
  let n = Graph.n_nodes g in
  (* One SPT per initiator serves all its destinations, computed lazily
     since most nodes initiate nothing.  The dst loop only reads
     route-table rows and damage bitsets between queries, so the tree
     stays valid until the next initiator replaces it. *)
  let cases = ref [] in
  for initiator = n - 1 downto 0 do
    let spt = workspace_spt damage ~root:initiator in
    for dst = n - 1 downto 0 do
      match case_at g table damage ~spt ~initiator ~dst with
      | Some case -> cases := case :: !cases
      | None -> ()
    done
  done;
  !cases

let of_area topo table area =
  let damage = Damage.apply topo area in
  { topo; table; area; damage; cases = cases_of_damage topo table damage }

let generate topo table rng ?(r_min = 100.0) ?(r_max = 300.0) () =
  let area = Rtr_failure.Area.random_disc rng ~r_min ~r_max () in
  of_area topo table area

(* Per destination [t], the table's rows form a tree towards [t]: the
   default path from [s] is the tree path, and it fails iff [s] lies in
   the subtree of a cut root — a failed tree node, or a node whose own
   tree link ([link_row t u]) failed.  A failed link is the tree link
   of at most one of its endpoints.  So the index stores every tree in
   preorder, where a subtree is one interval of positions, and a damage
   only scans the intervals under its cut roots.

   Index layout, row [t] at offset [t * n]: [pos.(t*n + v)] is [v]'s
   position in tree [t] ([-1] off the tree: [t]'s pre-failure
   component misses [v]), and [order] and [size] are indexed by
   position: the node there and the size of its subtree. *)
type tree_index = {
  n : int;
  pos : int array;
  order : int array;
  size : int array;
}

let c_classify_damages = Rtr_obs.Metrics.counter "scenario.classify_damages"
let c_classify_cuts = Rtr_obs.Metrics.counter "scenario.classify_cuts"
let c_classify_visits = Rtr_obs.Metrics.counter "scenario.classify_visits"

let tree_index g table =
  let n = Graph.n_nodes g in
  let pos = Array.make (n * n) (-1)
  and order = Array.make (n * n) 0
  and size = Array.make (n * n) 1 in
  (* Children lists in CSR form, rebuilt per tree. *)
  let first = Array.make (n + 1) 0
  and children = Array.make n 0
  and stack = Array.make n 0 in
  for t = 0 to n - 1 do
    let next_row = Route_table.next_row table ~dst:t and base = t * n in
    Array.fill first 0 (n + 1) 0;
    Array.iter
      (fun p -> if p >= 0 then first.(p + 1) <- first.(p + 1) + 1)
      next_row;
    for u = 1 to n do
      first.(u) <- first.(u) + first.(u - 1)
    done;
    Array.iteri
      (fun v p ->
        if p >= 0 then begin
          children.(first.(p)) <- v;
          first.(p) <- first.(p) + 1
        end)
      next_row;
    (* [first.(u)] now ends [u]'s children, which start at
       [first.(u - 1)] (0 for node 0). *)
    stack.(0) <- t;
    let depth = ref 1 and next = ref 0 in
    while !depth > 0 do
      decr depth;
      let u = stack.(!depth) in
      pos.(base + u) <- !next;
      order.(base + !next) <- u;
      incr next;
      for i = (if u = 0 then 0 else first.(u - 1)) to first.(u) - 1 do
        stack.(!depth) <- children.(i);
        incr depth
      done
    done;
    (* Children follow their parent, so summing from the back settles
       each subtree before its parent reads it. *)
    for p = !next - 1 downto 1 do
      let parent = next_row.(order.(base + p)) in
      let pp = base + pos.(base + parent) in
      size.(pp) <- size.(pp) + size.(base + p)
    done
  done;
  { n; pos; order; size }

let count_failed_paths topo table =
  let g = Rtr_topo.Topology.graph topo in
  let { n; pos; order; size } = tree_index g table in
  fun damage ->
    let node_ok = Damage.node_ok damage in
    let comps = Rtr_graph.Components.compute (Damage.view damage) in
    let failed_nodes = Array.of_list (Damage.failed_nodes damage) in
    let failed_links = Array.of_list (Damage.failed_links damage) in
    let n_failed = Array.length failed_nodes in
    let ends = Array.map (Graph.endpoints g) failed_links in
    (* Cut-root positions of one tree, ascending; each failed element
       gives at most one. *)
    let roots = Array.make (n_failed + Array.length failed_links) 0 in
    let k = ref 0 in
    let add p =
      if p >= 0 then begin
        let i = ref !k in
        while !i > 0 && roots.(!i - 1) > p do
          roots.(!i) <- roots.(!i - 1);
          decr i
        done;
        roots.(!i) <- p;
        incr k
      end
    in
    let recoverable = ref 0 and irrecoverable = ref 0 in
    let cuts = ref 0 and visits = ref 0 in
    for t = 0 to n - 1 do
      let base = t * n in
      if not (node_ok t) then begin
        (* Every live tree node's path ends at the dead [t]. *)
        let dead = ref 0 in
        for i = 0 to n_failed - 1 do
          let v = failed_nodes.(i) in
          if v <> t && pos.(base + v) >= 0 then incr dead
        done;
        irrecoverable := !irrecoverable + size.(base) - 1 - !dead
      end
      else begin
        let link_row = Route_table.link_row table ~dst:t in
        k := 0;
        for i = 0 to n_failed - 1 do
          add pos.(base + failed_nodes.(i))
        done;
        for i = 0 to Array.length failed_links - 1 do
          let l = failed_links.(i) and a, b = ends.(i) in
          if link_row.(a) = l then add pos.(base + a)
          else if link_row.(b) = l then add pos.(base + b)
        done;
        let ct = Rtr_graph.Components.id_of comps t in
        (* A root inside the last kept interval is nested in it and
           already counted. *)
        let stop = ref 0 in
        for i = 0 to !k - 1 do
          let p = roots.(i) in
          if p >= !stop then begin
            incr cuts;
            stop := p + size.(base + p);
            visits := !visits + size.(base + p);
            for q = base + p to base + !stop - 1 do
              let s = order.(q) in
              if node_ok s then
                if Rtr_graph.Components.id_of comps s = ct then
                  incr recoverable
                else incr irrecoverable
            done
          end
        done
      end
    done;
    Rtr_obs.Metrics.Counter.incr c_classify_damages;
    Rtr_obs.Metrics.Counter.add c_classify_cuts !cuts;
    Rtr_obs.Metrics.Counter.add c_classify_visits !visits;
    (!recoverable, !irrecoverable)
