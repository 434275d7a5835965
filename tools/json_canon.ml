(* json_canon [--strip PREFIX]... FILE: parse one JSON document, drop
   every object member whose dotted path starts with one of the given
   prefixes, and print the compact canonical rendering.  ci_smoke's
   determinism gate uses it to compare metrics files modulo the fields
   that legitimately vary run to run (the manifest's argv/wall-clock,
   the pool's scheduling metrics), and its count gate to keep only a
   snapshot's counters.  All logic lives in [Rtr_tools.Json_tools]. *)

let () =
  match
    Rtr_tools.Json_tools.parse_canon_args (List.tl (Array.to_list Sys.argv))
  with
  | Error usage ->
      prerr_endline usage;
      exit 2
  | Ok (prefixes, file) -> (
      match Rtr_tools.Json_tools.canon ~prefixes file with
      | Error msg ->
          prerr_endline msg;
          exit 1
      | Ok line ->
          print_string line;
          print_newline ())
