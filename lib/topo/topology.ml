type t = {
  name : string;
  graph : Rtr_graph.Graph.t;
  embedding : Embedding.t;
  crossings : Crossings.t;
}

let create ~name graph embedding =
  if Embedding.size embedding <> Rtr_graph.Graph.n_nodes graph then
    invalid_arg "Topology.create: embedding size mismatch";
  { name; graph; embedding; crossings = Crossings.compute graph embedding }

let name t = t.name
let graph t = t.graph
let embedding t = t.embedding
let crossings t = t.crossings

let pp ppf t =
  Format.fprintf ppf "%s: %a, %d crossing pairs" t.name Rtr_graph.Graph.pp
    t.graph (Crossings.total t.crossings)
