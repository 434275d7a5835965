(** Run manifest: enough provenance to make a metrics/trace artifact
    reproducible — argv, seed, free-form config pairs, [git describe],
    the host's core count and OCaml version, and wall time. *)

type t = {
  tool : string;
  argv : string list;
  seed : int option;
  config : (string * string) list;
  git : string option;
  cores : int;  (** [Domain.recommended_domain_count ()] *)
  ocaml : string;  (** [Sys.ocaml_version] *)
  wall_s : float option;
}

val git_describe : unit -> string option
(** [git describe --always --dirty], or [None] outside a work tree. *)

val make :
  ?seed:int ->
  ?config:(string * string) list ->
  ?wall_s:float ->
  ?tool:string ->
  unit ->
  t
(** Captures argv, git state, core count and OCaml version at call
    time. *)

val to_json : t -> Json.t
