module Graph = Rtr_graph.Graph
module Route_table = Rtr_routing.Route_table

type t = { perms : int array array }

let default_seed = 0x2009_1497 (* the scheme's arXiv number *)

let create ?(seed = default_seed) ?(candidates = 3) g =
  let n = Graph.n_nodes g in
  let rng = Rtr_util.Rng.make seed in
  let perms =
    Array.init candidates (fun _ ->
        let p = Array.init n (fun i -> i) in
        Rtr_util.Rng.shuffle rng p;
        p)
  in
  { perms }

type outcome =
  | Rerouted of { via : Graph.node; nodes : Graph.node list; cost : int }
  | No_route

(* splitmix64-style finalizer over the flow identity: the candidate a
   flow draws from permutation [i] is a pure function of
   (flow, initiator, dst, i), so any shard evaluating the flow agrees. *)
let mix ~flow ~initiator ~dst i =
  let h = ref (flow * 0x9E3779B1) in
  let stir k = h := (!h lxor (k + 0x85EBCA6B + (!h lsl 6) + (!h lsr 2))) land max_int in
  stir initiator;
  stir (dst * 0xC2B2AE35);
  stir (i * 0x27D4EB2F);
  h := !h lxor (!h lsr 15);
  h := !h * 0x2545F491 land max_int;
  !h lxor (!h lsr 13)

(* The default-route walk [src -> dst] of the damaged table, emitted
   tail-first onto [acc] (so legs compose by walking the second leg
   first).  The table's next hops cannot loop. *)
let rec walk_onto table ~src ~dst acc =
  if src = dst then src :: acc
  else
    match Route_table.next_hop table ~src ~dst with
    | None -> assert false (* guarded by a finite dist before walking *)
    | Some v -> src :: walk_onto table ~src:v ~dst acc

let leg_cost table ~src ~dst =
  let d = Route_table.dist table ~src ~dst in
  if d = max_int then None else Some d

let reroute t table ~flow ~initiator ~dst =
  let best = ref None in
  Array.iteri
    (fun i perm ->
      let via = perm.(mix ~flow ~initiator ~dst i mod Array.length perm) in
      match (leg_cost table ~src:initiator ~dst:via, leg_cost table ~src:via ~dst) with
      | Some a, Some b -> (
          let cost = a + b in
          match !best with
          | Some (_, c) when c <= cost -> ()
          | _ -> best := Some (via, cost))
      | _ -> ())
    t.perms;
  match !best with
  | Some (via, cost) ->
      let nodes =
        walk_onto table ~src:initiator ~dst:via
          (List.tl (walk_onto table ~src:via ~dst []))
      in
      Rerouted { via; nodes; cost }
  | None -> (
      (* no live intermediate: fall back to the direct surviving route *)
      match leg_cost table ~src:initiator ~dst with
      | Some cost ->
          Rerouted
            { via = initiator; nodes = walk_onto table ~src:initiator ~dst []; cost }
      | None -> No_route)
