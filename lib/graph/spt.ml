type direction = From_root | To_root

type t = {
  graph : Graph.t;
  root : Graph.node;
  direction : direction;
  dist : int array;
  parent_node : int array;
  parent_link : int array;
}

let direction t = t.direction
let dist t v = t.dist.(v)
let reached t v = t.dist.(v) < max_int
let parent_node t v = t.parent_node.(v)
let parent_link t v = t.parent_link.(v)

let path t v =
  if not (reached t v) then None
  else begin
    let rec walk acc u = if u = -1 then acc else walk (u :: acc) t.parent_node.(u) in
    let towards_root = List.rev (walk [] v) in
    (* walk collects v, parent v, ..., root then reverses: root..v. *)
    match t.direction with
    | From_root -> Some (Path.of_nodes (List.rev towards_root))
    | To_root -> Some (Path.of_nodes towards_root)
  end

let copy t =
  {
    t with
    dist = Array.copy t.dist;
    parent_node = Array.copy t.parent_node;
    parent_link = Array.copy t.parent_link;
  }
