module Graph = Rtr_graph.Graph

type t = {
  graph : Graph.t;
  node_failed : bool array;
  link_failed : bool array;
  view : Rtr_graph.View.t;
}

let indices_of a =
  let acc = ref [] in
  for i = Array.length a - 1 downto 0 do
    if a.(i) then acc := i :: !acc
  done;
  !acc

let seal graph node_failed link_failed =
  (* Links incident to a failed router are unusable no matter what. *)
  Graph.iter_links graph (fun id u v ->
      if node_failed.(u) || node_failed.(v) then link_failed.(id) <- true);
  let view =
    Rtr_graph.View.of_failed graph ~nodes:(indices_of node_failed)
      ~links:(indices_of link_failed)
  in
  { graph; node_failed; link_failed; view }

let apply topo area =
  let graph = Rtr_topo.Topology.graph topo in
  let emb = Rtr_topo.Topology.embedding topo in
  let node_failed =
    Array.init (Graph.n_nodes graph) (fun v ->
        Area.contains area (Rtr_topo.Embedding.position emb v))
  in
  let link_failed =
    Array.init (Graph.n_links graph) (fun id ->
        Area.hits_segment area (Rtr_topo.Embedding.segment emb graph id))
  in
  seal graph node_failed link_failed

let of_failed graph ~nodes ~links =
  let node_failed = Array.make (Graph.n_nodes graph) false in
  let link_failed = Array.make (Graph.n_links graph) false in
  List.iter (fun v -> node_failed.(v) <- true) nodes;
  List.iter (fun l -> link_failed.(l) <- true) links;
  seal graph node_failed link_failed

let none graph = of_failed graph ~nodes:[] ~links:[]

let merge a b =
  if a.graph != b.graph then invalid_arg "Damage.merge: different graphs";
  let node_failed = Array.map2 ( || ) a.node_failed b.node_failed in
  let link_failed = Array.map2 ( || ) a.link_failed b.link_failed in
  (* Both inputs are sealed, so the union is sealed too; still go
     through [seal] so the view is rebuilt consistently. *)
  seal a.graph node_failed link_failed

let restore t ?(nodes = []) ?(links = []) () =
  let node_failed = Array.copy t.node_failed in
  let link_failed = Array.copy t.link_failed in
  List.iter (fun v -> node_failed.(v) <- false) nodes;
  List.iter (fun l -> link_failed.(l) <- false) links;
  (* [seal] re-fails any restored link still incident to a failed
     router: repairing a link cannot resurrect its dead endpoint. *)
  seal t.graph node_failed link_failed

let equal a b =
  a.graph == b.graph
  && a.node_failed = b.node_failed
  && a.link_failed = b.link_failed

let view t = t.view

let node_ok t v = not t.node_failed.(v)
let link_ok t l = not t.link_failed.(l)
let node_failed t v = t.node_failed.(v)
let link_failed t l = t.link_failed.(l)

let failed_nodes t = indices_of t.node_failed
let failed_links t = indices_of t.link_failed

let count a = Array.fold_left (fun n b -> if b then n + 1 else n) 0 a
let n_failed_nodes t = count t.node_failed
let n_failed_links t = count t.link_failed

let neighbor_unreachable t neighbor link =
  t.link_failed.(link) || t.node_failed.(neighbor)

let unreachable_neighbors t g u =
  Graph.fold_neighbors g u ~init:[] ~f:(fun acc v id ->
      if neighbor_unreachable t v id then (v, id) :: acc else acc)
  |> List.rev

let pp ppf t =
  Format.fprintf ppf "damage(%d nodes, %d links failed)" (n_failed_nodes t)
    (n_failed_links t)
