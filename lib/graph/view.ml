(* Liveness masks are bitsets over dense ids: 32 bits per word so the
   index arithmetic is two shifts and a mask, never a division.  A set
   bit means "usable".  Views are immutable; derivation copies the
   word arrays (O(words)), membership reads one word (O(1)). *)

let c_allocs = Rtr_obs.Metrics.counter "view.allocs"

type t = { graph : Graph.t; node_words : int array; link_words : int array }

let bits_log = 5
let bits_mask = 31
let words_for n = (n + bits_mask) lsr bits_log

let[@inline] mem words i =
  (Array.unsafe_get words (i lsr bits_log) lsr (i land bits_mask)) land 1 <> 0

let clear words i =
  words.(i lsr bits_log) <-
    words.(i lsr bits_log) land lnot (1 lsl (i land bits_mask))

(* All-ones over exactly [n] bits: full words, then a ragged tail. *)
let ones n =
  let w = words_for n in
  let a = Array.make w ((1 lsl 32) - 1) in
  if w > 0 && n land bits_mask <> 0 then
    a.(w - 1) <- (1 lsl (n land bits_mask)) - 1;
  a

let graph t = t.graph
let node_mask t = t.node_words
let link_mask t = t.link_words
let node_ok t v = mem t.node_words v
let link_ok t id = mem t.link_words id

let full g =
  Rtr_obs.Metrics.Counter.incr c_allocs;
  {
    graph = g;
    node_words = ones (Graph.n_nodes g);
    link_words = ones (Graph.n_links g);
  }

let of_failed g ~nodes ~links =
  Rtr_obs.Metrics.Counter.incr c_allocs;
  let node_words = ones (Graph.n_nodes g)
  and link_words = ones (Graph.n_links g) in
  List.iter (fun v -> clear node_words v) nodes;
  List.iter (fun id -> clear link_words id) links;
  { graph = g; node_words; link_words }

let remove_links t ids =
  Rtr_obs.Metrics.Counter.incr c_allocs;
  let link_words = Array.copy t.link_words in
  List.iter (fun id -> clear link_words id) ids;
  { t with link_words }

(* The masked neighbour loop walks the graph's CSR arrays directly:
   no per-neighbour tuple, two flat int reads per candidate. *)
let iter_neighbors t u f =
  let g = t.graph in
  let off = Graph.adj_offsets g
  and ngb = Graph.adj_targets g
  and lnk = Graph.adj_links g in
  let node_words = t.node_words and link_words = t.link_words in
  let hi = Array.unsafe_get off (u + 1) in
  for i = off.(u) to hi - 1 do
    let v = Array.unsafe_get ngb i and id = Array.unsafe_get lnk i in
    if mem link_words id && mem node_words v then f v id
  done

let popcount words n =
  let c = ref 0 in
  for i = 0 to n - 1 do
    if mem words i then incr c
  done;
  !c

let n_live_nodes t = popcount t.node_words (Graph.n_nodes t.graph)
let n_live_links t = popcount t.link_words (Graph.n_links t.graph)

let equal a b =
  a.graph == b.graph && a.node_words = b.node_words
  && a.link_words = b.link_words

let pp ppf t =
  Format.fprintf ppf "view(%d/%d nodes, %d/%d links live)" (n_live_nodes t)
    (Graph.n_nodes t.graph) (n_live_links t)
    (Graph.n_links t.graph)
