(** The logic behind the [json_canon] and [json_check] executables,
    split out as a library so the test suite can cover canonicalisation
    and validation without spawning processes. *)

val read_file : string -> string
(** Whole file, binary mode.  Raises [Sys_error] like [open_in]. *)

val strip : prefixes:string list -> Rtr_obs.Json.t -> Rtr_obs.Json.t
(** Drop every object member whose dotted path starts with one of
    [prefixes].  Array elements keep their parent's path: stripping
    applies to named members, not positions. *)

val parse_canon_args : string list -> (string list * string, string) result
(** Parse [json_canon]'s argument list (excluding [argv.(0)]) into
    [(strip_prefixes, file)].  [Error usage] for an empty list, a
    trailing [--strip], or more than one file. *)

val canon : prefixes:string list -> string -> (string, string) result
(** Read [file], parse, strip, and return the compact canonical
    rendering (no trailing newline).  [Error] carries the message the
    executable prints. *)

type problem = { where : string; message : string }
(** [where] is ["path"] or ["path:LINE"] for .jsonl files. *)

val check_content : path:string -> string -> problem list
(** Validate file contents: one JSON value per non-empty line when
    [path] ends in [.jsonl], a single document otherwise. *)

val check_file : string -> problem list
(** [check_content] over the file on disk; unreadable files yield one
    problem. *)
