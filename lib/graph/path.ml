(* Stored in reverse (destination first) so that extending a walk hop by
   hop is O(1); [nodes] restores source-first order. *)
type t = { rev : Graph.node list; len : int }

let of_nodes = function
  | [] -> invalid_arg "Path.of_nodes: empty"
  | ns -> { rev = List.rev ns; len = List.length ns }

let nodes p = List.rev p.rev

let source p =
  match p.rev with
  | [] -> assert false
  | _ -> List.nth p.rev (p.len - 1)

let destination p = match p.rev with d :: _ -> d | [] -> assert false
let hops p = p.len - 1

let links g p =
  let rec loop acc = function
    | a :: (b :: _ as rest) ->
        (match Graph.find_link g b a with
        | Some id -> loop (id :: acc) rest
        | None ->
            invalid_arg
              (Printf.sprintf "Path.links: %d and %d not adjacent" b a))
    | [ _ ] | [] -> acc
  in
  loop [] p.rev

let cost g p =
  let rec loop acc = function
    | a :: (b :: _ as rest) ->
        (* rev order: the hop goes b -> a. *)
        (match Graph.find_link g b a with
        | Some id -> loop (acc + Graph.cost g id ~src:b) rest
        | None -> invalid_arg "Path.cost: not adjacent")
    | [ _ ] | [] -> acc
  in
  loop 0 p.rev

let is_valid view p =
  let g = View.graph view in
  let rec loop = function
    | a :: (b :: _ as rest) ->
        View.node_ok view a
        && (match Graph.find_link g b a with
           | Some id -> View.link_ok view id
           | None -> false)
        && loop rest
    | [ a ] -> View.node_ok view a
    | [] -> true
  in
  loop p.rev

let equal a b = a.len = b.len && a.rev = b.rev

let pp ppf p =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf " -> ")
    (fun ppf v -> Format.fprintf ppf "v%d" v)
    ppf (nodes p)

let to_string p = Format.asprintf "%a" pp p
