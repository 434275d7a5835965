module Graph = Rtr_graph.Graph

type result = {
  right : Phase1.result;
  left : Phase1.result;
  first_return_hops : int;
  both_return_hops : int;
  merged_failed_links : Graph.link_id list;
}

let run topo damage ~initiator ~trigger () =
  let right =
    Phase1.run topo damage ~hand:Sweep.Right ~initiator ~trigger ()
  in
  let left = Phase1.run topo damage ~hand:Sweep.Left ~initiator ~trigger () in
  let merged_failed_links =
    right.Phase1.failed_links
    @ List.filter
        (fun id -> not (List.mem id right.Phase1.failed_links))
        left.Phase1.failed_links
  in
  {
    right;
    left;
    first_return_hops = min right.Phase1.hops left.Phase1.hops;
    both_return_hops = max right.Phase1.hops left.Phase1.hops;
    merged_failed_links;
  }

let phase2_of_merged topo damage result =
  Phase2.create topo damage ~initiator:result.right.Phase1.initiator
    ~removed:result.merged_failed_links
