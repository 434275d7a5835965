module Graph = Rtr_graph.Graph
module Damage = Rtr_failure.Damage
module Embedding = Rtr_topo.Embedding
open Rtr_geom

type hand = Right | Left

let c_selects = Rtr_obs.Metrics.counter "sweep.selects"

let candidates topo damage ?(hand = Right) ~at ~reference ~excluded () =
  if at = reference then invalid_arg "Sweep: reference equals current node";
  let g = Rtr_topo.Topology.graph topo in
  let emb = Rtr_topo.Topology.embedding topo in
  let sweep_line = Embedding.direction emb ~from_:at ~to_:reference in
  let rotation =
    match hand with
    | Right -> Angle.ccw_from ~reference:sweep_line
    | Left -> Angle.cw_from ~reference:sweep_line
  in
  let eligible acc v id =
    if Damage.neighbor_unreachable damage v id || excluded id then acc
    else
      let dir = Embedding.direction emb ~from_:at ~to_:v in
      (rotation dir, v, id) :: acc
  in
  Graph.fold_neighbors g at ~init:[] ~f:eligible
  |> List.sort (fun (a1, v1, _) (a2, v2, _) ->
         let c = Float.compare a1 a2 in
         if c <> 0 then c else Int.compare v1 v2)

(* [select] is the head of [candidates], but it runs once per phase-1
   hop of every case, so it keeps the (angle, node) minimum in one pass
   over the CSR adjacency with a per-domain scratch — no direction
   vectors, no rotation closure, no accumulator options.  Same
   tie-break as the sort: smaller angle first ([Float.compare]), then
   smaller node id.  [candidates] stays as the test oracle. *)

(* The running minimum; the angle sits in a one-slot float array so
   updating it never boxes. *)
type scratch = {
  mutable best_v : int;
  mutable best_id : int;
  best_angle : float array;
}

let scratch_slot : scratch Rtr_util.Domain_local.t =
  Rtr_util.Domain_local.make (fun () ->
      { best_v = -1; best_id = -1; best_angle = [| 0.0 |] })

let select topo damage ?(hand = Right) ~at ~reference ~excluded () =
  Rtr_obs.Metrics.Counter.incr c_selects;
  if at = reference then invalid_arg "Sweep: reference equals current node";
  let g = Rtr_topo.Topology.graph topo in
  let emb = Rtr_topo.Topology.embedding topo in
  let p_at = Embedding.position emb at in
  let p_ref = Embedding.position emb reference in
  (* Hoisted reference angle: [ccw_from_angle] on it is bit-identical
     to [ccw_from] on the direction vectors (see [Angle]). *)
  let ref_angle =
    Angle.of_vec_xy
      ~x:(p_ref.Point.x -. p_at.Point.x)
      ~y:(p_ref.Point.y -. p_at.Point.y)
  in
  let right = hand = Right in
  let s = Rtr_util.Domain_local.get scratch_slot in
  s.best_v <- -1;
  s.best_id <- -1;
  let offsets = Graph.adj_offsets g
  and targets = Graph.adj_targets g
  and links = Graph.adj_links g in
  for i = offsets.(at) to offsets.(at + 1) - 1 do
    let v = Array.unsafe_get targets i in
    let id = Array.unsafe_get links i in
    if not (Damage.neighbor_unreachable damage v id || excluded id) then begin
      let pv = Embedding.position emb v in
      let raw =
        Angle.of_vec_xy
          ~x:(pv.Point.x -. p_at.Point.x)
          ~y:(pv.Point.y -. p_at.Point.y)
      in
      let a =
        if right then Angle.ccw_from_angle ~reference:ref_angle raw
        else Angle.cw_from_angle ~reference:ref_angle raw
      in
      if s.best_v = -1 then begin
        s.best_v <- v;
        s.best_id <- id;
        Array.unsafe_set s.best_angle 0 a
      end
      else
        let c = Float.compare (Array.unsafe_get s.best_angle 0) a in
        if not (c < 0 || (c = 0 && s.best_v < v)) then begin
          s.best_v <- v;
          s.best_id <- id;
          Array.unsafe_set s.best_angle 0 a
        end
    end
  done;
  if s.best_v = -1 then None else Some (s.best_v, s.best_id)
