type node = int
type link_id = int

type t = {
  n : int;
  (* Per link, endpoints with u < v and the two directional costs. *)
  link_u : int array;
  link_v : int array;
  cost_uv : int array;
  cost_vu : int array;
  (* Adjacency in CSR form: the neighbours of [u] are
     [adj_ngb.(i), adj_lnk.(i)] for [i] in
     [adj_off.(u) .. adj_off.(u+1) - 1], sorted ascending by neighbour
     id (neighbours are unique per node, so this is the same canonical
     order the old (node * link_id) array-of-arrays gave). *)
  adj_off : int array;
  adj_ngb : int array;
  adj_lnk : int array;
  (* Per arc, beside [adj_lnk]: the cost of crossing the arc's link out
     of the segment's node ([adj_out]) and into it ([adj_in]), so the
     SPT relaxation reads one flat int per arc in either direction. *)
  adj_out : int array;
  adj_in : int array;
  (* Largest directional link cost; bounds every finite shortest-path
     distance by [max_cost * (n - 1)], which is what lets Dijkstra pick
     a bucket queue (see [Pqueue]) for small-weight graphs. *)
  max_cost : int;
}

let n_nodes g = g.n
let n_links g = Array.length g.link_u

let check_node n u =
  if u < 0 || u >= n then
    invalid_arg (Printf.sprintf "Graph: node %d out of range [0,%d)" u n)

let build_weighted ~n ~edges =
  if n <= 0 then invalid_arg "Graph.build: n must be positive";
  let m = List.length edges in
  let link_u = Array.make m 0
  and link_v = Array.make m 0
  and cost_uv = Array.make m 1
  and cost_vu = Array.make m 1 in
  let seen = Hashtbl.create (2 * m) in
  List.iteri
    (fun id (u, v, cuv, cvu) ->
      check_node n u;
      check_node n v;
      if u = v then invalid_arg "Graph.build: self loop";
      if cuv <= 0 || cvu <= 0 then invalid_arg "Graph.build: nonpositive cost";
      let lo = min u v and hi = max u v in
      if Hashtbl.mem seen (lo, hi) then
        invalid_arg (Printf.sprintf "Graph.build: duplicate edge (%d,%d)" u v);
      Hashtbl.add seen (lo, hi) ();
      link_u.(id) <- lo;
      link_v.(id) <- hi;
      (* Store costs in the canonical (lo -> hi) orientation. *)
      if u = lo then begin
        cost_uv.(id) <- cuv;
        cost_vu.(id) <- cvu
      end
      else begin
        cost_uv.(id) <- cvu;
        cost_vu.(id) <- cuv
      end)
    edges;
  let deg = Array.make n 0 in
  Array.iter (fun u -> deg.(u) <- deg.(u) + 1) link_u;
  Array.iter (fun v -> deg.(v) <- deg.(v) + 1) link_v;
  let adj_off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    adj_off.(u + 1) <- adj_off.(u) + deg.(u)
  done;
  let adj_ngb = Array.make (2 * m) 0 and adj_lnk = Array.make (2 * m) 0 in
  let fill = Array.copy adj_off in
  for id = 0 to m - 1 do
    let u = link_u.(id) and v = link_v.(id) in
    adj_ngb.(fill.(u)) <- v;
    adj_lnk.(fill.(u)) <- id;
    fill.(u) <- fill.(u) + 1;
    adj_ngb.(fill.(v)) <- u;
    adj_lnk.(fill.(v)) <- id;
    fill.(v) <- fill.(v) + 1
  done;
  (* Sort each CSR segment by neighbour id: gives every iteration a
     canonical deterministic order. *)
  for u = 0 to n - 1 do
    let lo = adj_off.(u) and hi = adj_off.(u + 1) in
    if hi - lo > 1 then begin
      let seg = Array.init (hi - lo) (fun i -> (adj_ngb.(lo + i), adj_lnk.(lo + i))) in
      Array.sort compare seg;
      Array.iteri
        (fun i (v, id) ->
          adj_ngb.(lo + i) <- v;
          adj_lnk.(lo + i) <- id)
        seg
    end
  done;
  let adj_out = Array.make (2 * m) 0 and adj_in = Array.make (2 * m) 0 in
  for u = 0 to n - 1 do
    for i = adj_off.(u) to adj_off.(u + 1) - 1 do
      let id = adj_lnk.(i) in
      let out_, in_ =
        if link_u.(id) = u then (cost_uv.(id), cost_vu.(id))
        else (cost_vu.(id), cost_uv.(id))
      in
      adj_out.(i) <- out_;
      adj_in.(i) <- in_
    done
  done;
  let max_cost =
    let best = ref 1 in
    for id = 0 to m - 1 do
      if cost_uv.(id) > !best then best := cost_uv.(id);
      if cost_vu.(id) > !best then best := cost_vu.(id)
    done;
    !best
  in
  {
    n;
    link_u;
    link_v;
    cost_uv;
    cost_vu;
    adj_off;
    adj_ngb;
    adj_lnk;
    adj_out;
    adj_in;
    max_cost;
  }

let build ~n ~edges =
  build_weighted ~n ~edges:(List.map (fun (u, v) -> (u, v, 1, 1)) edges)

let endpoints g id = (g.link_u.(id), g.link_v.(id))

let other_end g id u =
  if g.link_u.(id) = u then g.link_v.(id)
  else if g.link_v.(id) = u then g.link_u.(id)
  else invalid_arg "Graph.other_end: node not an endpoint"

let max_cost g = g.max_cost

let cost g id ~src =
  if g.link_u.(id) = src then g.cost_uv.(id)
  else if g.link_v.(id) = src then g.cost_vu.(id)
  else invalid_arg "Graph.cost: node not an endpoint"

let degree g u = g.adj_off.(u + 1) - g.adj_off.(u)

let neighbors g u =
  let lo = g.adj_off.(u) in
  Array.init (degree g u) (fun i -> (g.adj_ngb.(lo + i), g.adj_lnk.(lo + i)))

let adj_offsets g = g.adj_off
let adj_targets g = g.adj_ngb
let adj_links g = g.adj_lnk
let adj_out_costs g = g.adj_out
let adj_in_costs g = g.adj_in

let find_link g u v =
  let lo = g.adj_off.(u) and hi = g.adj_off.(u + 1) in
  let rec loop i =
    if i >= hi then None
    else if g.adj_ngb.(i) = v then Some g.adj_lnk.(i)
    else loop (i + 1)
  in
  loop lo

let iter_neighbors g u f =
  let hi = g.adj_off.(u + 1) in
  for i = g.adj_off.(u) to hi - 1 do
    f (Array.unsafe_get g.adj_ngb i) (Array.unsafe_get g.adj_lnk i)
  done

let fold_neighbors g u ~init ~f =
  let hi = g.adj_off.(u + 1) in
  let acc = ref init in
  for i = g.adj_off.(u) to hi - 1 do
    acc := f !acc (Array.unsafe_get g.adj_ngb i) (Array.unsafe_get g.adj_lnk i)
  done;
  !acc

let iter_links g f =
  for id = 0 to n_links g - 1 do
    f id g.link_u.(id) g.link_v.(id)
  done

let fold_links g ~init ~f =
  let acc = ref init in
  iter_links g (fun id u v -> acc := f !acc id u v);
  !acc

let link_name g id = Printf.sprintf "e%d,%d" g.link_u.(id) g.link_v.(id)

let pp ppf g =
  Format.fprintf ppf "graph(%d nodes, %d links)" (n_nodes g) (n_links g)
