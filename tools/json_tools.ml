module Json = Rtr_obs.Json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec strip ~prefixes (j : Json.t) = strip_at prefixes "" j

and strip_at prefixes path = function
  | Json.Obj members ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             let p = if path = "" then k else path ^ "." ^ k in
             if List.exists (fun pre -> String.starts_with ~prefix:pre p)
                  prefixes
             then None
             else Some (k, strip_at prefixes p v))
           members)
  | Json.Arr items ->
      (* Array elements keep their parent's path: stripping applies to
         named members, not positions. *)
      Json.Arr (List.map (strip_at prefixes path) items)
  | other -> other

let usage = "usage: json_canon [--strip DOTTED.PATH.PREFIX]... FILE"

let parse_canon_args args =
  let rec go prefixes = function
    | [] | [ "--strip" ] -> Error usage
    | "--strip" :: p :: rest -> go (p :: prefixes) rest
    | [ file ] -> Ok (List.rev prefixes, file)
    | _ -> Error usage
  in
  go [] args

let canon ~prefixes file =
  match Json.parse (String.trim (read_file file)) with
  | exception Sys_error msg -> Error (Printf.sprintf "%s: %s" file msg)
  | Error msg -> Error (Printf.sprintf "%s: malformed JSON: %s" file msg)
  | Ok doc -> Ok (Json.to_string (strip ~prefixes doc))

type problem = { where : string; message : string }

let check_content ~path contents =
  if Filename.check_suffix path ".jsonl" then
    String.split_on_char '\n' contents
    |> List.mapi (fun i line -> (i + 1, line))
    |> List.filter_map (fun (lineno, line) ->
           if String.trim line = "" then None
           else
             match Json.parse line with
             | Ok _ -> None
             | Error msg ->
                 Some
                   {
                     where = Printf.sprintf "%s:%d" path lineno;
                     message = "malformed JSON: " ^ msg;
                   })
  else
    match Json.parse (String.trim contents) with
    | Ok _ -> []
    | Error msg -> [ { where = path; message = "malformed JSON: " ^ msg } ]

let check_file path =
  match read_file path with
  | exception Sys_error msg -> [ { where = path; message = msg } ]
  | contents -> check_content ~path contents
