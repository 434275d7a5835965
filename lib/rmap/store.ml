module Metrics = Rtr_obs.Metrics

let c_hits = Metrics.counter "rmap.lookup_hits"
let c_misses = Metrics.counter "rmap.lookup_misses"

type kind = Recovered | Unreachable | False_path

type case = {
  initiator : int;
  trigger : int;
  dst : int;
  kind : kind;
  cost : int;
  true_cost : int;
  path : int array;
}

let stretch ~cost ~true_cost =
  if cost < 0 || true_cost <= 0 then None
  else Some (float_of_int cost /. float_of_int true_cost)

let magic = "rmap/1\000\000"
let header_bytes = 40
let index_entry_bytes = 16
let case_bytes = 32

let kind_code = function Recovered -> 0 | Unreachable -> 1 | False_path -> 2
let pad4 n = (n + 3) land lnot 3

(* ------------------------------------------------------------------ *)
(* Writing *)

let encode ~topo_name ~n_nodes ~n_links entries =
  let entries =
    List.sort
      (fun (a, _) (b, _) -> Signature.compare a b)
      entries
  in
  (let rec dups = function
     | (a, _) :: ((b, _) :: _ as rest) ->
         if Signature.equal a b then
           invalid_arg
             (Printf.sprintf "Store.encode: duplicate signature %s"
                (Signature.to_hex a));
         dups rest
     | _ -> ()
   in
   dups entries);
  let n_scenarios = List.length entries in
  let n_cases =
    List.fold_left (fun acc (_, cs) -> acc + Array.length cs) 0 entries
  in
  let sig_pool_len =
    List.fold_left
      (fun acc ((s : Signature.t), _) -> acc + String.length (s :> string))
      0 entries
  in
  let path_pool_len =
    List.fold_left
      (fun acc (_, cs) ->
        Array.fold_left (fun a c -> a + Array.length c.path) acc cs)
      0 entries
  in
  let name_len = String.length topo_name in
  let index_off = header_bytes + pad4 name_len in
  let sigs_off = index_off + (index_entry_bytes * n_scenarios) in
  let cases_off = sigs_off + pad4 sig_pool_len in
  let paths_off = cases_off + (case_bytes * n_cases) in
  let total_len = paths_off + (4 * path_pool_len) in
  let b = Buffer.create total_len in
  let u32 v =
    if v < 0 || v > 0x3FFFFFFF then
      invalid_arg (Printf.sprintf "Store.encode: field %d out of range" v);
    Buffer.add_int32_le b (Int32.of_int v)
  in
  let i32 v = Buffer.add_int32_le b (Int32.of_int v) in
  Buffer.add_string b magic;
  u32 n_nodes;
  u32 n_links;
  u32 n_scenarios;
  u32 n_cases;
  u32 sig_pool_len;
  u32 path_pool_len;
  u32 name_len;
  u32 total_len;
  Buffer.add_string b topo_name;
  for _ = name_len to pad4 name_len - 1 do
    Buffer.add_char b '\000'
  done;
  (* index *)
  let sig_off = ref 0 and case_off = ref 0 in
  List.iter
    (fun ((s : Signature.t), cs) ->
      u32 !sig_off;
      u32 (String.length (s :> string));
      u32 !case_off;
      u32 (Array.length cs);
      sig_off := !sig_off + String.length (s :> string);
      case_off := !case_off + Array.length cs)
    entries;
  (* signature pool *)
  List.iter
    (fun ((s : Signature.t), _) -> Buffer.add_string b (s :> string))
    entries;
  for _ = sig_pool_len to pad4 sig_pool_len - 1 do
    Buffer.add_char b '\000'
  done;
  (* cases *)
  let path_off = ref 0 in
  List.iter
    (fun (_, cs) ->
      Array.iter
        (fun c ->
          let check_node what v =
            if v < 0 || v >= n_nodes then
              invalid_arg
                (Printf.sprintf "Store.encode: %s v%d outside 0..%d" what v
                   (n_nodes - 1))
          in
          check_node "initiator" c.initiator;
          check_node "trigger" c.trigger;
          check_node "dst" c.dst;
          Array.iter (check_node "path node") c.path;
          u32 c.initiator;
          u32 c.trigger;
          u32 c.dst;
          u32 (kind_code c.kind);
          i32 c.cost;
          i32 c.true_cost;
          u32 !path_off;
          u32 (Array.length c.path);
          path_off := !path_off + Array.length c.path)
        cs)
    entries;
  (* path pool *)
  List.iter
    (fun (_, cs) ->
      Array.iter (fun c -> Array.iter (fun v -> u32 v) c.path) cs)
    entries;
  assert (Buffer.length b = total_len);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Loading *)

type t = {
  data : string;
  name : string;
  n_nodes : int;
  n_links : int;
  n_scenarios : int;
  n_cases : int;
  index_off : int;
  sigs_off : int;
  sig_pool_len : int;
  cases_off : int;
  paths_off : int;
  path_pool_len : int;
}

let get_u32 data off = Int32.to_int (String.get_int32_le data off)

let of_string data =
  let len = String.length data in
  let err fmt = Printf.ksprintf (fun m -> Error ("rmap/1: " ^ m)) fmt in
  if len < header_bytes then err "truncated header (%d bytes)" len
  else if String.sub data 0 8 <> magic then err "bad magic"
  else begin
    let n_nodes = get_u32 data 8 in
    let n_links = get_u32 data 12 in
    let n_scenarios = get_u32 data 16 in
    let n_cases = get_u32 data 20 in
    let sig_pool_len = get_u32 data 24 in
    let path_pool_len = get_u32 data 28 in
    let name_len = get_u32 data 32 in
    let total_len = get_u32 data 36 in
    let non_negative =
      n_nodes >= 0 && n_links >= 0 && n_scenarios >= 0 && n_cases >= 0
      && sig_pool_len >= 0 && path_pool_len >= 0 && name_len >= 0
    in
    if not non_negative then err "negative header field"
    else begin
      let index_off = header_bytes + pad4 name_len in
      let sigs_off = index_off + (index_entry_bytes * n_scenarios) in
      let cases_off = sigs_off + pad4 sig_pool_len in
      let paths_off = cases_off + (case_bytes * n_cases) in
      let expect_len = paths_off + (4 * path_pool_len) in
      if total_len <> expect_len then
        err "header total_len %d does not match layout %d" total_len expect_len
      else if len <> total_len then
        err "file is %d bytes, header says %d" len total_len
      else begin
        let t =
          {
            data;
            name = String.sub data header_bytes name_len;
            n_nodes;
            n_links;
            n_scenarios;
            n_cases;
            index_off;
            sigs_off;
            sig_pool_len;
            cases_off;
            paths_off;
            path_pool_len;
          }
        in
        (* Validate the index: offsets in range, signatures canonical
           and strictly ascending (binary search relies on it). *)
        let bad = ref None in
        let fail fmt = Printf.ksprintf (fun m -> if !bad = None then bad := Some m) fmt in
        let prev = ref "" in
        for slot = 0 to n_scenarios - 1 do
          if !bad = None then begin
            let e = index_off + (index_entry_bytes * slot) in
            let sig_off = get_u32 data e in
            let sig_len = get_u32 data (e + 4) in
            let case_off = get_u32 data (e + 8) in
            let case_count = get_u32 data (e + 12) in
            if
              sig_off < 0 || sig_len < 0
              || sig_off + sig_len > sig_pool_len
            then fail "slot %d: signature outside the pool" slot
            else if
              case_off < 0 || case_count < 0 || case_off + case_count > n_cases
            then fail "slot %d: cases outside the case table" slot
            else begin
              let s = String.sub data (sigs_off + sig_off) sig_len in
              (match Signature.of_string ~n_links s with
              | Error m -> fail "slot %d: %s" slot m
              | Ok _ -> ());
              if slot > 0 && String.compare !prev s >= 0 then
                fail "index not sorted at slot %d" slot;
              prev := s
            end
          end
        done;
        (* Validate every case: node ids and path extents in range. *)
        for i = 0 to n_cases - 1 do
          if !bad = None then begin
            let c = cases_off + (case_bytes * i) in
            let node what v =
              if v < 0 || v >= n_nodes then fail "case %d: %s v%d out of range" i what v
            in
            node "initiator" (get_u32 data c);
            node "trigger" (get_u32 data (c + 4));
            node "dst" (get_u32 data (c + 8));
            let kind = get_u32 data (c + 12) in
            if kind < 0 || kind > 2 then fail "case %d: unknown kind %d" i kind;
            let path_off = get_u32 data (c + 24) in
            let path_len = get_u32 data (c + 28) in
            if path_off < 0 || path_len < 0 || path_off + path_len > path_pool_len
            then fail "case %d: path outside the pool" i
            else
              for j = 0 to path_len - 1 do
                node "path node" (get_u32 data (paths_off + (4 * (path_off + j))))
              done
          end
        done;
        match !bad with Some m -> err "%s" m | None -> Ok t
      end
    end
  end

(* [In_channel.input_all], not [in_channel_length]: the length of a
   directory is not a size, while reading one fails with "Is a
   directory". *)
let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | data -> of_string data
  | exception Sys_error m -> Error m

let topo_name t = t.name
let n_nodes t = t.n_nodes
let n_links t = t.n_links
let n_scenarios t = t.n_scenarios
let n_cases t = t.n_cases
let bytes t = String.length t.data

(* ------------------------------------------------------------------ *)
(* Lookup *)

(* [String.compare] order on [n] bytes of [a] from [off] against [b]
   from 0, eight bytes at a time: a big-endian load compared unsigned
   orders like its bytes do, and the long zero prefixes of few-link
   signatures pass in a word per step.  Top-level recursion, not local
   closures, keeps the probe allocation-free. *)
let rec compare_bytes a off b n i =
  if i >= n then 0
  else
    let c =
      Char.compare (String.unsafe_get a (off + i)) (String.unsafe_get b i)
    in
    if c <> 0 then c else compare_bytes a off b n (i + 1)

let rec compare_words a off b n i =
  if i + 8 > n then compare_bytes a off b n i
  else
    let c =
      Int64.unsigned_compare
        (String.get_int64_be a (off + i))
        (String.get_int64_be b i)
    in
    if c <> 0 then c else compare_words a off b n (i + 8)

(* Compare the query signature against the slot's in-place signature
   bytes — no substring extraction on the probe path. *)
let compare_slot t slot (q : Signature.t) =
  let e = t.index_off + (index_entry_bytes * slot) in
  let sig_off = get_u32 t.data e in
  let sig_len = get_u32 t.data (e + 4) in
  let q = (q :> string) in
  let qlen = String.length q in
  let c =
    compare_words t.data (t.sigs_off + sig_off) q (Int.min sig_len qlen) 0
  in
  if c <> 0 then c else Int.compare sig_len qlen

let find_slot t q =
  let lo = ref 0 and hi = ref (t.n_scenarios - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = compare_slot t mid q in
    if c = 0 then begin
      found := mid;
      lo := !hi + 1
    end
    else if c < 0 then lo := mid + 1
    else hi := mid - 1
  done;
  if !found >= 0 then Metrics.Counter.incr c_hits
  else Metrics.Counter.incr c_misses;
  !found

let find t q = match find_slot t q with -1 -> None | slot -> Some slot

let signature t slot =
  let e = t.index_off + (index_entry_bytes * slot) in
  let sig_off = get_u32 t.data e in
  let sig_len = get_u32 t.data (e + 4) in
  match
    Signature.of_string ~n_links:t.n_links
      (String.sub t.data (t.sigs_off + sig_off) sig_len)
  with
  | Ok s -> s
  | Error _ -> assert false (* validated on load *)

let case_range t slot =
  let e = t.index_off + (index_entry_bytes * slot) in
  (get_u32 t.data (e + 8), get_u32 t.data (e + 12))

let case_field t i off = get_u32 t.data (t.cases_off + (case_bytes * i) + off)
let case_initiator t i = case_field t i 0
let case_trigger t i = case_field t i 4
let case_dst t i = case_field t i 8

let case_kind t i =
  match case_field t i 12 with
  | 0 -> Recovered
  | 1 -> Unreachable
  | _ -> False_path

let case_cost t i = case_field t i 16
let case_true_cost t i = case_field t i 20
let case_path_len t i = case_field t i 28

let case_path_node t i j =
  let path_off = case_field t i 24 in
  get_u32 t.data (t.paths_off + (4 * (path_off + j)))

let case_path t i = Array.init (case_path_len t i) (case_path_node t i)

(* Cases of a slot are stored ascending by (initiator, dst) — the
   [Scenario.cases_of_damage] enumeration order — so the per-record
   probe is a second binary search. *)
let case_index t ~slot ~initiator ~trigger ~dst =
  let first, count = case_range t slot in
  let lo = ref first and hi = ref (first + count - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Int.compare (case_initiator t mid) initiator in
    let c = if c <> 0 then c else Int.compare (case_dst t mid) dst in
    if c = 0 then begin
      found := mid;
      lo := !hi + 1
    end
    else if c < 0 then lo := mid + 1
    else hi := mid - 1
  done;
  if !found >= 0 && case_trigger t !found = trigger then !found else -1

let to_case t i =
  {
    initiator = case_initiator t i;
    trigger = case_trigger t i;
    dst = case_dst t i;
    kind = case_kind t i;
    cost = case_cost t i;
    true_cost = case_true_cost t i;
    path = case_path t i;
  }

let iter_slots t f =
  for slot = 0 to t.n_scenarios - 1 do
    f slot
  done
