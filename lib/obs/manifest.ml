type t = {
  tool : string;
  argv : string list;
  seed : int option;
  config : (string * string) list;
  git : string option;
  cores : int;
  ocaml : string;
  wall_s : float option;
}

let git_describe () =
  try
    let ic =
      Unix.open_process_in "git describe --always --dirty 2>/dev/null"
    in
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> (match line with Some "" -> None | l -> l)
    | _ -> None
  with Unix.Unix_error _ | Sys_error _ -> None

let make ?seed ?(config = []) ?wall_s
    ?(tool = Filename.basename Sys.executable_name) () =
  {
    tool;
    argv = Array.to_list Sys.argv;
    seed;
    config;
    git = git_describe ();
    cores = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    wall_s;
  }

let to_json m =
  let opt f = function None -> Json.Null | Some x -> f x in
  Json.Obj
    [
      ("tool", Json.String m.tool);
      ("argv", Json.Arr (List.map (fun a -> Json.String a) m.argv));
      ("seed", opt (fun s -> Json.Int s) m.seed);
      ( "config",
        Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) m.config) );
      ("git", opt (fun g -> Json.String g) m.git);
      ("cores", Json.Int m.cores);
      ("ocaml", Json.String m.ocaml);
      ("wall_s", opt (fun w -> Json.Float w) m.wall_s);
    ]
