open Rtr_geom
module Rng = Rtr_util.Rng

type style = { locality : float; pref_attach : float; spanning_pref : float }

let default_style = { locality = 0.05; pref_attach = 1.0; spanning_pref = 0.0 }

let generate rng ~name ~n ~m ?(style = default_style)
    ?(width = Embedding.default_width) ?(height = Embedding.default_height) ()
    =
  if n < 2 then invalid_arg "Generator.generate: need >= 2 nodes";
  if m < n - 1 then invalid_arg "Generator.generate: too few links to connect";
  if m > n * (n - 1) / 2 then invalid_arg "Generator.generate: too many links";
  let emb = Embedding.random rng ~n ~width ~height () in
  let pos v = Embedding.position emb v in
  let diagonal = sqrt ((width *. width) +. (height *. height)) in
  let decay = style.locality *. diagonal in
  let waxman u v = exp (-.Point.dist (pos u) (pos v) /. decay) in
  let deg = Array.make n 0 in
  let linked = Hashtbl.create (2 * m) in
  let edges = ref [] in
  let has u v = Hashtbl.mem linked (min u v, max u v) in
  let add u v =
    Hashtbl.replace linked (min u v, max u v) ();
    edges := (u, v) :: !edges;
    deg.(u) <- deg.(u) + 1;
    deg.(v) <- deg.(v) + 1
  in
  (* Spanning phase: attach router i to a nearby already-attached
     router.  Insertion order is shuffled so the tree shape does not
     correlate with node ids. *)
  let order = Array.init n (fun i -> i) in
  Rng.shuffle rng order;
  for k = 1 to n - 1 do
    let v = order.(k) in
    let attached = Array.sub order 0 k in
    let u =
      Rng.pick_weighted rng attached ~weight:(fun u ->
          waxman u v *. ((float_of_int (deg.(u) + 1)) ** style.spanning_pref))
    in
    add u v
  done;
  (* Densification phase: remaining links sampled with preferential
     attachment on both endpoints and Waxman distance decay. *)
  let all = Array.init n (fun i -> i) in
  let pref u = (float_of_int (deg.(u) + 1)) ** style.pref_attach in
  let remaining = ref (m - (n - 1)) in
  while !remaining > 0 do
    let u = Rng.pick_weighted rng all ~weight:pref in
    let candidates =
      Array.of_seq
        (Seq.filter (fun v -> v <> u && not (has u v)) (Array.to_seq all))
    in
    if Array.length candidates > 0 then begin
      let v =
        Rng.pick_weighted rng candidates ~weight:(fun v ->
            pref v *. waxman u v)
      in
      add u v;
      decr remaining
    end
  done;
  let graph = Rtr_graph.Graph.build ~n ~edges:(List.rev !edges) in
  Topology.create ~name graph emb
