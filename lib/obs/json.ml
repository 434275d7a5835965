type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Arr of t list
  | Obj of (string * t) list

(* --- printing ------------------------------------------------------- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_to_string x =
  if not (Float.is_finite x) then "null"
  else
    let s = Printf.sprintf "%.12g" x in
    (* "1." is not valid JSON; "1" is. *)
    if String.length s > 0 && s.[String.length s - 1] = '.' then
      s ^ "0"
    else s

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> Buffer.add_string buf (float_to_string x)
  | String s -> escape_to buf s
  | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  to_buffer buf t;
  Buffer.contents buf

(* --- parsing -------------------------------------------------------- *)

exception Bad of int * string

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

(* The scanner reads [s] in place and allocates nothing per character:
   every [cur] follows a test that [pos] is inside [s], so it can skip
   the bounds check.  Only the values it returns are allocated. *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let at_end () = !pos >= n in
  let cur () = String.unsafe_get s !pos in
  let next_is c = !pos < n && String.unsafe_get s !pos = c in
  let advance () = incr pos in
  let rec skip_ws () =
    if not (at_end ()) then
      match cur () with
      | ' ' | '\t' | '\n' | '\r' ->
          advance ();
          skip_ws ()
      | _ -> ()
  in
  let expect c =
    if next_is c then advance () else fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    let rec same i =
      i = l
      || String.unsafe_get s (!pos + i) = String.unsafe_get word i
         && same (i + 1)
    in
    if !pos + l <= n && same 0 then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match cur () with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  (* A string without escapes is one [String.sub]; the first escape or
     control character sends the whole string through the buffer. *)
  let rec plain_end i =
    if i >= n then -1
    else
      match String.unsafe_get s i with
      | '"' -> i
      | '\\' -> -1
      | c when Char.code c < 0x20 -> -1
      | _ -> plain_end (i + 1)
  in
  let escaped_string () =
    let buf = Buffer.create 16 in
    let rec go () =
      if at_end () then fail "unterminated string"
      else
        let c = cur () in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' -> (
            if at_end () then fail "unterminated escape";
            let e = cur () in
            advance ();
            (match e with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' -> (
                let cp = parse_hex4 () in
                match Uchar.of_int cp with
                | u -> Buffer.add_utf_8_uchar buf u
                | exception Invalid_argument _ -> fail "bad codepoint")
            | _ -> fail "bad escape");
            go ())
        | c when Char.code c < 0x20 -> fail "control character in string"
        | c ->
            Buffer.add_char buf c;
            go ()
    in
    go ()
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let close = plain_end start in
    if close < 0 then escaped_string ()
    else begin
      pos := close + 1;
      String.sub s start (close - start)
    end
  in
  (* A plain decimal integer of at most 18 digits (optionally negated)
     cannot overflow and reads the same as [int_of_string] reads it, so
     it is accumulated in place.  Any other run of number characters
     takes the [int_of_string_opt] / [float_of_string_opt] path. *)
  let parse_number () =
    let start = !pos in
    let neg = next_is '-' in
    if neg then advance ();
    let first = !pos in
    let v = ref 0 in
    while
      (not (at_end ()))
      && match cur () with '0' .. '9' -> true | _ -> false
    do
      v := (!v * 10) + (Char.code (cur ()) - Char.code '0');
      advance ()
    done;
    let digits = !pos - first in
    if digits > 0 && digits <= 18 && not (!pos < n && is_num_char (cur ()))
    then Int (if neg then - !v else !v)
    else begin
      pos := start;
      while !pos < n && is_num_char (cur ()) do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "bad number %S" text))
    end
  in
  let rec parse_value () =
    skip_ws ();
    if at_end () then fail "unexpected end of input";
    match cur () with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> String (parse_string ())
    | '[' ->
        advance ();
        skip_ws ();
        if next_is ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            if next_is ',' then begin
              advance ();
              items (v :: acc)
            end
            else if next_is ']' then begin
              advance ();
              List.rev (v :: acc)
            end
            else fail "expected ',' or ']'"
          in
          Arr (items [])
        end
    | '{' ->
        advance ();
        skip_ws ();
        if next_is '}' then begin
          advance ();
          Obj []
        end
        else begin
          let pair () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let rec members acc =
            let kv = pair () in
            skip_ws ();
            if next_is ',' then begin
              advance ();
              members (kv :: acc)
            end
            else if next_is '}' then begin
              advance ();
              List.rev (kv :: acc)
            end
            else fail "expected ',' or '}'"
          in
          Obj (members [])
        end
    | '-' | '0' .. '9' -> parse_number ()
    | c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) -> Error (Printf.sprintf "offset %d: %s" at msg)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None
