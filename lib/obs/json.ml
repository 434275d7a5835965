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

(* The digits of [-i] for [i <= 0], most significant first.  Working on
   the negative side covers [min_int], whose negation overflows; the
   bytes are [string_of_int]'s without its intermediate string. *)
let rec add_neg_digits buf i =
  if i <= -10 then add_neg_digits buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (i mod 10)))

let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf i
  end
  else add_neg_digits buf (-i)

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
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

(* One scanner: a cursor over [s] read in place.  Every [cur] follows a
   test that [pos] is inside [s], so it can skip the bounds check; the
   scan allocates nothing per character, only the values its readers
   return.  [parse] and the typed readers share every rule below. *)
type cursor = { s : string; n : int; mutable pos : int }

exception Bad of int * string

let fail c msg = raise (Bad (c.pos, msg))
let at_end c = c.pos >= c.n
let cur c = String.unsafe_get c.s c.pos
let next_is c ch = c.pos < c.n && String.unsafe_get c.s c.pos = ch
let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  if not (at_end c) then
    match cur c with
    | ' ' | '\t' | '\n' | '\r' ->
        advance c;
        skip_ws c
    | _ -> ()

let expect c ch =
  if next_is c ch then advance c else fail c (Printf.sprintf "expected %C" ch)

let literal c word value =
  let l = String.length word in
  let rec same i =
    i = l
    || String.unsafe_get c.s (c.pos + i) = String.unsafe_get word i
       && same (i + 1)
  in
  if c.pos + l <= c.n && same 0 then begin
    c.pos <- c.pos + l;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

let parse_hex4 c =
  if c.pos + 4 > c.n then fail c "truncated \\u escape";
  let v = ref 0 in
  for _ = 1 to 4 do
    let d =
      match cur c with
      | '0' .. '9' as ch -> Char.code ch - Char.code '0'
      | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
      | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
      | _ -> fail c "bad \\u escape"
    in
    v := (!v * 16) + d;
    advance c
  done;
  !v

(* A string without escapes is one [String.sub]; the first escape or
   control character sends the whole string through the buffer. *)
let rec plain_end c i =
  if i >= c.n then -1
  else
    match String.unsafe_get c.s i with
    | '"' -> i
    | '\\' -> -1
    | ch when Char.code ch < 0x20 -> -1
    | _ -> plain_end c (i + 1)

let escaped_string c =
  let buf = Buffer.create 16 in
  let rec go () =
    if at_end c then fail c "unterminated string"
    else
      let ch = cur c in
      advance c;
      match ch with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          if at_end c then fail c "unterminated escape";
          let e = cur c in
          advance c;
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
              let cp = parse_hex4 c in
              match Uchar.of_int cp with
              | u -> Buffer.add_utf_8_uchar buf u
              | exception Invalid_argument _ -> fail c "bad codepoint")
          | _ -> fail c "bad escape");
          go ())
      | ch when Char.code ch < 0x20 -> fail c "control character in string"
      | ch ->
          Buffer.add_char buf ch;
          go ()
  in
  go ()

let parse_string c =
  expect c '"';
  let start = c.pos in
  let close = plain_end c start in
  if close < 0 then escaped_string c
  else begin
    c.pos <- close + 1;
    String.sub c.s start (close - start)
  end

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

(* A plain decimal integer of at most 18 digits (optionally negated)
   cannot overflow and reads the same as [int_of_string] reads it, so
   it is accumulated in place.  [fast_int] returns it, or [min_int] —
   which 18 digits cannot reach — with [pos] unmoved when the number
   is anything else. *)
let fast_int c =
  let start = c.pos in
  let neg = next_is c '-' in
  if neg then advance c;
  let first = c.pos in
  let v = ref 0 in
  while
    (not (at_end c)) && match cur c with '0' .. '9' -> true | _ -> false
  do
    v := (!v * 10) + (Char.code (cur c) - Char.code '0');
    advance c
  done;
  let digits = c.pos - first in
  if digits > 0 && digits <= 18 && not (c.pos < c.n && is_num_char (cur c))
  then if neg then - !v else !v
  else begin
    c.pos <- start;
    min_int
  end

(* Any other run of number characters: [int_of_string_opt], then
   [float_of_string_opt]. *)
let slow_number c =
  let start = c.pos in
  while c.pos < c.n && is_num_char (cur c) do
    advance c
  done;
  let text = String.sub c.s start (c.pos - start) in
  match int_of_string_opt text with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail c (Printf.sprintf "bad number %S" text))

let number c =
  let i = fast_int c in
  if i <> min_int then Int i else slow_number c

(* Leading whitespace, then the first character of a value. *)
let value_start c =
  skip_ws c;
  if at_end c then fail c "unexpected end of input";
  cur c

let items c read =
  skip_ws c;
  expect c '[';
  skip_ws c;
  if next_is c ']' then begin
    advance c;
    []
  end
  else
    let rec go acc =
      let v = read c in
      skip_ws c;
      if next_is c ',' then begin
        advance c;
        go (v :: acc)
      end
      else if next_is c ']' then begin
        advance c;
        List.rev (v :: acc)
      end
      else fail c "expected ',' or ']'"
    in
    go []

let members c read =
  skip_ws c;
  expect c '{';
  skip_ws c;
  if next_is c '}' then advance c
  else
    let rec go () =
      skip_ws c;
      let k = parse_string c in
      skip_ws c;
      expect c ':';
      read k c;
      skip_ws c;
      if next_is c ',' then begin
        advance c;
        go ()
      end
      else if next_is c '}' then advance c
      else fail c "expected ',' or '}'"
    in
    go ()

let rec value c =
  match value_start c with
  | 'n' -> literal c "null" Null
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | '"' -> String (parse_string c)
  | '[' -> Arr (items c value)
  | '{' ->
      let kvs = ref [] in
      members c (fun k c -> kvs := (k, value c) :: !kvs);
      Obj (List.rev !kvs)
  | '-' | '0' .. '9' -> number c
  | ch -> fail c (Printf.sprintf "unexpected %C" ch)

let skip c = ignore (value c)

let int c =
  match value_start c with
  | '-' | '0' .. '9' -> (
      let i = fast_int c in
      if i <> min_int then i
      else
        let start = c.pos in
        match slow_number c with
        | Int i -> i
        | _ -> raise (Bad (start, "expected an integer")))
  | _ -> fail c "expected an integer"

let int_or_null c =
  if value_start c = 'n' then literal c "null" None else Some (int c)

let bool c =
  match value_start c with
  | 't' -> literal c "true" true
  | 'f' -> literal c "false" false
  | _ -> fail c "expected a boolean"

let int_list c = items c int

let tuple c read =
  skip_ws c;
  expect c '[';
  let v = read c in
  skip_ws c;
  expect c ']';
  v

let next read c =
  skip_ws c;
  expect c ',';
  read c

let read s f =
  let c = { s; n = String.length s; pos = 0 } in
  match
    let v = f c in
    skip_ws c;
    if c.pos <> c.n then fail c "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) -> Error (Printf.sprintf "offset %d: %s" at msg)

let parse s = read s value

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None
