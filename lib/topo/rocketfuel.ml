module Graph = Rtr_graph.Graph

(* Parsers raise [Malformed] internally; the entry points turn it into
   an [Error]. *)
exception Malformed of string

let fail msg = raise (Malformed msg)
let fail_line lineno msg = fail (Printf.sprintf "line %d: %s" lineno msg)

let guard parse =
  match parse () with t -> Ok t | exception Malformed msg -> Error msg

(* Dense node numbering in order of first appearance. *)
module Interner = struct
  type t = { ids : (string, int) Hashtbl.t; mutable next : int }

  let create () = { ids = Hashtbl.create 64; next = 0 }

  let get t name =
    match Hashtbl.find_opt t.ids name with
    | Some id -> id
    | None ->
        let id = t.next in
        t.next <- id + 1;
        Hashtbl.replace t.ids name id;
        id

  let count t = t.next
end

let finish ~name ~seed ~n edges =
  if n = 0 then fail "Rocketfuel: no nodes";
  if n = 1 then fail "Rocketfuel: single-node map";
  let graph = Graph.build_weighted ~n ~edges in
  if not (Rtr_graph.Components.is_connected graph) then
    fail "Rocketfuel: map is not connected";
  let rng = Rtr_util.Rng.make seed in
  let embedding = Embedding.random rng ~n () in
  Topology.create ~name graph embedding

(* --- weights format ------------------------------------------------ *)

(* "<name> <name> <weight>", names possibly containing spaces; the
   weight is the last field, the two names split at the comma-state
   boundary.  Rocketfuel's own weights files separate fields with
   whitespace and names never contain digits-only tokens, so the robust
   rule is: last token = weight, the rest splits evenly... in practice
   names are "city,+state"-style single tokens; we accept both by
   splitting on runs of two or more spaces or tabs first, falling back
   to single-space tokens. *)
let weights_fields line =
  let by_tabs =
    String.split_on_char '\t' line |> List.filter (fun s -> s <> "")
  in
  match by_tabs with
  | [ a; b; w ] -> Some (String.trim a, String.trim b, String.trim w)
  | _ -> (
      let tokens =
        String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
      in
      match tokens with
      | [ a; b; w ] -> Some (a, b, w)
      | _ :: _ :: _ :: _ -> (
          (* names with spaces: the weight is the last token, the two
             names split at the token starting the second name — the
             one following a token that ends the first "city, st"
             group.  Heuristic: split before the token after the first
             comma-terminated group. *)
          match List.rev tokens with
          | w :: rest_rev ->
              let rest = List.rev rest_rev in
              (* names look like "City Name, ST": the first name ends
                 with the token after its comma token *)
              let rec split_names acc = function
                | tok :: state :: tl
                  when String.length tok > 0 && String.contains tok ',' ->
                    Some
                      ( String.concat " " (List.rev (state :: tok :: acc)),
                        String.concat " " tl )
                | tok :: tl -> split_names (tok :: acc) tl
                | [] -> None
              in
              Option.map (fun (a, b) -> (a, b, w)) (split_names [] rest)
          | [] -> None)
      | _ -> None)

(* Largest accepted weight: far above any inferred IGP weight, and low
   enough that path costs over any realistic map stay exact ints. *)
let max_weight = float_of_int (1 lsl 30)

let of_weights ?(name = "rocketfuel") ~seed content =
  guard @@ fun () ->
  let interner = Interner.create () in
  (* directed weights, keyed by canonical pair *)
  let forward : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let parse_line lineno line =
    let line = String.trim line in
    if line = "" || line.[0] = '#' then ()
    else
      match weights_fields line with
      | None -> fail_line lineno "expected '<name> <name> <weight>'"
      | Some (a, b, w) -> (
          match float_of_string_opt w with
          | None -> fail_line lineno (Printf.sprintf "bad weight %S" w)
          | Some wf when not (wf > 0.0 && wf <= max_weight) ->
              fail_line lineno
                (Printf.sprintf "weight %S outside (0, 2^30]" w)
          | Some wf ->
              let wi = max 1 (int_of_float (Float.round wf)) in
              let u = Interner.get interner a and v = Interner.get interner b in
              if u <> v then Hashtbl.replace forward (u, v) wi)
  in
  String.split_on_char '\n' content
  |> List.iteri (fun i l -> parse_line (i + 1) l);
  let seen = Hashtbl.create 256 in
  let edges = ref [] in
  Hashtbl.iter
    (fun (u, v) w ->
      let key = (min u v, max u v) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        let back =
          match Hashtbl.find_opt forward (v, u) with Some b -> b | None -> w
        in
        edges := (u, v, w, back) :: !edges
      end)
    forward;
  finish ~name ~seed ~n:(Interner.count interner) !edges

let load_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | content -> Ok content
  | exception Sys_error msg -> Error msg

let load_weights ?name ~seed path =
  Result.bind (load_file path) (of_weights ?name ~seed)

(* --- cch format ----------------------------------------------------- *)

(* uid @loc [+] [bb] (num_neigh) [&ext] -> <nuid-1> <nuid-2> ... {-euid} =name rn
   We keep the internal neighbour list (<...>) and drop external links
   ({-...}). *)
let of_cch ?(name = "rocketfuel-cch") ~seed content =
  guard @@ fun () ->
  let neighbours : (int * int) list ref = ref [] in
  let max_uid = ref (-1) in
  let uids = Hashtbl.create 256 in
  let parse_line lineno line =
    let line = String.trim line in
    if line = "" || line.[0] = '#' then ()
    else
      let tokens =
        String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
      in
      match tokens with
      | uid_s :: rest -> (
          match int_of_string_opt uid_s with
          | None ->
              (* external-address lines in cch files start with a
                 negative uid or raw address; skip anything without an
                 integer uid *)
              ()
          | Some uid when uid < 0 -> ()
          | Some uid ->
              Hashtbl.replace uids uid ();
              if uid > !max_uid then max_uid := uid;
              List.iter
                (fun tok ->
                  let n = String.length tok in
                  if n >= 2 && tok.[0] = '<' && tok.[n - 1] = '>' then
                    match int_of_string_opt (String.sub tok 1 (n - 2)) with
                    | Some nuid when nuid >= 0 && nuid <> uid ->
                        neighbours := (uid, nuid) :: !neighbours
                    | Some _ -> ()
                    | None ->
                        fail_line lineno
                          (Printf.sprintf "bad neighbour token %S" tok))
                rest)
      | [] -> ()
  in
  String.split_on_char '\n' content
  |> List.iteri (fun i l -> parse_line (i + 1) l);
  (* compact the uid space *)
  let interner = Interner.create () in
  let ids = Hashtbl.fold (fun uid () acc -> uid :: acc) uids [] in
  List.iter
    (fun uid -> ignore (Interner.get interner (string_of_int uid)))
    (List.sort compare ids);
  let node uid = Interner.get interner (string_of_int uid) in
  let seen = Hashtbl.create 256 in
  let edges = ref [] in
  List.iter
    (fun (u, v) ->
      if Hashtbl.mem uids u && Hashtbl.mem uids v then begin
        let a = node u and b = node v in
        let key = (min a b, max a b) in
        if a <> b && not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          edges := (a, b, 1, 1) :: !edges
        end
      end)
    !neighbours;
  finish ~name ~seed ~n:(Interner.count interner) !edges

let load_cch ?name ~seed path =
  Result.bind (load_file path) (of_cch ?name ~seed)
