module Graph = Rtr_graph.Graph
module View = Rtr_graph.View
module Damage = Rtr_failure.Damage
module Path = Rtr_graph.Path
module Dijkstra = Rtr_graph.Dijkstra
module Spt = Rtr_graph.Spt

type t = {
  graph : Graph.t;
  k : int;
  config_of : int array;
  isolated : Graph.node list array;
  restricted_link : int array;
      (* per isolated node, its single usable (restricted) link in the
         configuration isolating it; -1 for unprotected nodes *)
  next : int array array array;  (* next.(c).(dst).(src) *)
}

(* Backbone connectivity: the non-isolated nodes must form one
   connected component, and every isolated node must keep a live
   attachment into it. *)
let feasible g iso_in_c v =
  let n = Graph.n_nodes g in
  let isolated = Array.make n false in
  List.iter (fun u -> isolated.(u) <- true) iso_in_c;
  isolated.(v) <- true;
  let backbone u = not isolated.(u) in
  let start = ref (-1) in
  for u = n - 1 downto 0 do
    if backbone u then start := u
  done;
  if !start = -1 then false
  else begin
    let seen = Array.make n false in
    let q = Queue.create () in
    seen.(!start) <- true;
    Queue.push !start q;
    let count = ref 1 in
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      Graph.iter_neighbors g u (fun w _ ->
          if backbone w && not seen.(w) then begin
            seen.(w) <- true;
            incr count;
            Queue.push w q
          end)
    done;
    let backbone_size = ref 0 in
    for u = 0 to n - 1 do
      if backbone u then incr backbone_size
    done;
    !count = !backbone_size
    (* every isolated node needs an attachment point in the backbone *)
    && List.for_all
         (fun u ->
           Graph.fold_neighbors g u ~init:false ~f:(fun acc w _ ->
               acc || backbone w))
         (v :: iso_in_c)
  end

let assign g k =
  let n = Graph.n_nodes g in
  let config_of = Array.make n (-1) in
  let isolated = Array.make k [] in
  (* Higher-degree nodes are harder to isolate; place them first while
     configurations are still empty. *)
  let order =
    List.sort
      (fun a b ->
        let c = compare (Graph.degree g b) (Graph.degree g a) in
        if c <> 0 then c else compare a b)
      (List.init n Fun.id)
  in
  let ok =
    List.for_all
      (fun v ->
        let by_load =
          List.sort
            (fun a b -> compare (List.length isolated.(a), a) (List.length isolated.(b), b))
            (List.init k Fun.id)
        in
        match List.find_opt (fun c -> feasible g isolated.(c) v) by_load with
        | Some c ->
            config_of.(v) <- c;
            isolated.(c) <- v :: isolated.(c);
            true
        | None ->
            (* An articulation point (or a node with no possible
               backbone attachment) cannot be isolated at all: MRC
               leaves it unprotected, as the original paper notes for
               non-biconnected networks.  Only report failure when the
               node could have been isolated in an empty configuration
               — that is a capacity problem more configurations fix. *)
            not (feasible g [] v))
      order
  in
  if ok then Some (config_of, isolated) else None

(* In the configuration isolating v, exactly one of v's links — the
   restricted link, chosen as the smallest-id link to a non-isolated
   neighbour — remains usable; every other link of v is isolated
   outright.  This is the original scheme's link treatment and what
   lets MRC reroute around a failed last-hop link that the
   configuration isolates.

   The original scheme also gives the restricted link a prohibitive
   weight, so that shortest paths touch isolated nodes only as first
   or last hop.  Here the masking alone guarantees that: an isolated
   node keeps at most one link, to a node not isolated in the same
   configuration, so it is a leaf of the configuration's view.  A leaf
   can only be a first or last hop, and whatever weight its one link
   carries adds the same amount to every path through it, so no
   parent changes.  The configurations therefore route on the graph's
   own costs.

   A link restricted at both its endpoints would be isolated in no
   configuration, leaving its failure unprotected; the chooser below
   avoids re-picking a link the other endpoint already restricted
   whenever an alternative exists. *)
let choose_restricted g config_of restricted v =
  let c = config_of.(v) in
  let candidates =
    Graph.fold_neighbors g v ~init:[] ~f:(fun acc w id ->
        if config_of.(w) <> c then (id, w) :: acc else acc)
    |> List.rev
  in
  let fresh (id, w) = restricted.(w) <> id in
  match List.find_opt fresh candidates with
  | Some (id, _) -> id
  | None -> ( match candidates with (id, _) :: _ -> id | [] -> -1)

(* The configurations one isolation assignment induces.  Only this
   step runs Dijkstra (k x n trees); whether k suffices is settled by
   [assign] alone. *)
let of_assignment g k (config_of, isolated) =
  let n = Graph.n_nodes g in
  let restricted_link = Array.make n (-1) in
  for v = 0 to n - 1 do
    if config_of.(v) <> -1 then
      restricted_link.(v) <- choose_restricted g config_of restricted_link v
  done;
  let iso v = config_of.(v) in
  let usable c id =
    let u, v = Graph.endpoints g id in
    let u_iso = iso u = c and v_iso = iso v = c in
    if u_iso && v_iso then false
    else if u_iso then restricted_link.(u) = id
    else if v_iso then restricted_link.(v) = id
    else true
  in
  let ws = Dijkstra.Workspace.get () in
  let next =
    Array.init k (fun c ->
        (* MRC's configurations are precomputed failure views: each
           one masks the links its isolated nodes may not carry
           transit on. *)
        let view_c =
          View.of_failed g ~nodes:[]
            ~links:
              (List.filter
                 (fun id -> not (usable c id))
                 (List.init (Graph.n_links g) Fun.id))
        in
        Array.init n (fun dst ->
            let spt =
              Dijkstra.spt ~workspace:ws view_c ~root:dst
                ~direction:Spt.To_root ()
            in
            Array.init n (Spt.parent_node spt)))
  in
  { graph = g; k; config_of; isolated; restricted_link; next }

let check_k k = if k < 2 then invalid_arg "Mrc.build: need k >= 2"

let build g ~k =
  check_k k;
  Option.map (of_assignment g k) (assign g k)

(* The one search for a feasible k: [k_start] first, then upward while
   k <= [k_max]. *)
let smallest_assignment ?(k_start = 4) ?(k_max = 64) g =
  let rec try_k k =
    check_k k;
    if k > k_start && k > k_max then
      failwith
        (Printf.sprintf "Mrc.build_auto: no valid configuration set with k <= %d" k_max)
    else match assign g k with Some a -> (k, a) | None -> try_k (k + 1)
  in
  try_k k_start

let configs_needed ?k_start ?k_max g =
  fst (smallest_assignment ?k_start ?k_max g)

let build_auto ?k_start ?k_max g =
  let k, a = smallest_assignment ?k_start ?k_max g in
  of_assignment g k a

let n_configs t = t.k

let config_of t v =
  let c = t.config_of.(v) in
  if c = -1 then None else Some c

let unprotected t =
  let acc = ref [] in
  for v = Array.length t.config_of - 1 downto 0 do
    if t.config_of.(v) = -1 then acc := v :: !acc
  done;
  !acc

let isolated_in t c = List.sort compare t.isolated.(c)

let next_hop t ~config ~src ~dst =
  if src = dst then None
  else
    let v = t.next.(config).(dst).(src) in
    if v = -1 then None else Some v

type outcome =
  | Delivered of Path.t
  | Dropped of { at : Graph.node; hops_done : int }

let recover t damage ~initiator ~trigger ~dst =
  let g = t.graph in
  (* Configuration choice (Kvalbein et al.): for a failed next-hop
     node, the configuration isolating that node.  When the next hop
     IS the destination, the failure may be just the last-hop link;
     use a configuration in which that link is isolated — the one
     isolating [dst] unless the link is dst's restricted link there,
     otherwise the one isolating the detecting router. *)
  let c =
    if trigger <> dst then t.config_of.(trigger)
    else
      match Graph.find_link g initiator dst with
      | None -> -1
      | Some failed ->
          let c_dst = t.config_of.(dst) in
          if c_dst <> -1 && t.restricted_link.(dst) <> failed then c_dst
          else
            let c_self = t.config_of.(initiator) in
            if c_self <> -1 && t.restricted_link.(initiator) <> failed then
              c_self
            else -1
  in
  if c = -1 then Dropped { at = initiator; hops_done = 0 }
  else
  (* Plain per-configuration table forwarding: the backup configuration
     guarantees the packet avoids the element it isolates, nothing
     more.  Any further damage on the configuration's path drops the
     packet — the scheme has no second switch. *)
  let rec follow u journey_rev hops =
    if u = dst then Delivered (Path.of_nodes (List.rev journey_rev))
    else if hops > 4 * Graph.n_nodes g then Dropped { at = u; hops_done = hops }
    else
      let v = t.next.(c).(dst).(u) in
      if v = -1 then Dropped { at = u; hops_done = hops }
      else
        match Graph.find_link g u v with
        | None -> assert false
        | Some id ->
            if Damage.neighbor_unreachable damage v id then
              Dropped { at = u; hops_done = hops }
            else follow v (v :: journey_rev) (hops + 1)
  in
  follow initiator [ initiator ] 0
