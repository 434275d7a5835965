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

(* Episodes are kept integer-only — centisecond offsets and element id
   lists — so the stream codec serialises them exactly, like every
   other scenario field. *)
type episode = {
  at_cs : int;
  fail_nodes : int list;
  fail_links : int list;
  restore_nodes : int list;
  restore_links : int list;
}

let apply_episode g damage e =
  let restored =
    if e.restore_nodes = [] && e.restore_links = [] then damage
    else
      Damage.restore damage ~nodes:e.restore_nodes ~links:e.restore_links ()
  in
  if e.fail_nodes = [] && e.fail_links = [] then restored
  else
    Damage.merge restored
      (Damage.of_failed g ~nodes:e.fail_nodes ~links:e.fail_links)

let timeline g base episodes =
  let episodes =
    List.stable_sort (fun a b -> compare a.at_cs b.at_cs) episodes
  in
  List.fold_left
    (fun acc e ->
      let current = snd (List.hd acc) in
      let next = apply_episode g current e in
      if Damage.equal next current then acc
      else (float_of_int e.at_cs /. 100., next) :: acc)
    [ (0., base) ]
    episodes
  |> List.rev

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

let count_failed_paths topo table damage =
  let g = Rtr_topo.Topology.graph topo in
  let view = Damage.view damage in
  let node_ok = Damage.node_ok damage in
  let comps = Rtr_graph.Components.compute view in
  let n = Graph.n_nodes g in
  let recoverable = ref 0 and irrecoverable = ref 0 in
  for s = 0 to n - 1 do
    if node_ok s then
      for t = 0 to n - 1 do
        if t <> s then
          match Route_table.default_path_valid table view ~src:s ~dst:t with
          | None | Some true -> ()
          | Some false ->
              if node_ok t && Rtr_graph.Components.same comps s t then
                incr recoverable
              else incr irrecoverable
      done
  done;
  (!recoverable, !irrecoverable)
