module Experiments = Rtr_sim.Experiments
module Pipeline = Rtr_sim.Pipeline
module Stream = Rtr_sim.Stream
module Shard_store = Rtr_sim.Shard_store
module Report = Rtr_sim.Report
module Metrics = Rtr_obs.Metrics
module Isp = Rtr_topo.Isp

(* Same fixture as Test_experiments: 120 cases on the two smallest
   ASes, sequential. *)
let config =
  lazy
    {
      Experiments.presets =
        [ Option.get (Isp.find "AS1239"); Option.get (Isp.find "AS4323") ];
      recoverable_per_topo = 120;
      irrecoverable_per_topo = 120;
      seed = 3;
      mrc_k = None;
      jobs = 1;
    }

let generated = lazy (Experiments.generate (Lazy.force config))

(* One in-process evaluation of the generated records, shared by the
   codec tests. *)
let evaluated =
  lazy
    (let header, records = Lazy.force generated in
     let remaining = ref records in
     let next () =
       match !remaining with
       | [] -> None
       | r :: rest ->
           remaining := rest;
           Some r
     in
     let out = ref [] in
     let _mrc =
       Pipeline.evaluate ~jobs:1 ~header ~next
         ~emit:(fun r -> out := r :: !out)
         ()
     in
     List.rev !out)

(* --- temp dirs ------------------------------------------------------- *)

let with_tmpdir f =
  let dir = Filename.temp_file "rtr_test_stream" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let cleanup () =
    Array.iter
      (fun name -> Sys.remove (Filename.concat dir name))
      (Sys.readdir dir);
    Sys.rmdir dir
  in
  Fun.protect ~finally:cleanup (fun () -> f dir)

(* [Stream.open_reader] for a stream the test wrote itself: any decode
   error fails the test. *)
let open_stream path =
  match Stream.open_reader path with
  | Error e -> Alcotest.fail e
  | Ok (header, pull) ->
      let next () =
        match pull () with
        | None -> None
        | Some (Ok r) -> Some r
        | Some (Error e) -> Alcotest.fail e
      in
      (header, next)

(* Evaluate the records of one shard that [committed] does not hold
   yet into [w], then write the footer. *)
let evaluate_into ~header ~next ~shard ~shards w committed =
  let rec filtered () =
    match next () with
    | None -> None
    | Some r
      when r.Stream.seq mod shards = shard && not (committed r.Stream.seq) ->
        Some r
    | Some _ -> filtered ()
  in
  let mrc =
    Pipeline.evaluate ~jobs:1 ~header ~next:filtered
      ~emit:(Shard_store.append w) ()
  in
  Shard_store.finish w ~mrc

(* Evaluate one shard of a stream file into a shard file, exactly as
   [bin/rtr_sim evaluate] does. *)
let evaluate_shard ~stream_path ~path ~resume ~shard ~shards =
  let header, next = open_stream stream_path in
  match
    Shard_store.open_writer ~path ~resume ~shard ~shards
      ~count:header.Stream.count
  with
  | Shard_store.Complete -> ()
  | Shard_store.Writer (w, committed) ->
      evaluate_into ~header ~next ~shard ~shards w committed

(* --- codec round-trips ---------------------------------------------- *)

let test_header_roundtrip () =
  let header, _ = Lazy.force generated in
  (match Stream.parse_header (Stream.header_line header) with
  | Ok h -> Alcotest.(check bool) "header round-trips" true (h = header)
  | Error e -> Alcotest.fail ("header did not parse: " ^ e));
  Alcotest.(check bool) "count covers all topo records" true
    (header.Stream.count
    = List.fold_left
        (fun acc (s : Stream.topo_stat) -> acc + s.Stream.records)
        0 header.Stream.topos)

let test_scenario_roundtrip () =
  let _, records = Lazy.force generated in
  Alcotest.(check bool) "records present" true (records <> []);
  List.iter
    (fun (r : Stream.scenario) ->
      match Stream.parse_scenario (Stream.scenario_line r) with
      | Error e -> Alcotest.fail ("scenario did not parse: " ^ e)
      | Ok d ->
          (* The area is informational (evaluation reruns from the
             failed node/link sets), so it round-trips to printed
             precision; everything the evaluation consumes is exact. *)
          let exact x = { x with Stream.area = (0.0, 0.0, 0.0) } in
          Alcotest.(check bool)
            (Printf.sprintf "seq %d integer payload exact" r.Stream.seq)
            true
            (exact d = exact r);
          let dx, dy, dr = d.Stream.area and x, y, rad = r.Stream.area in
          List.iter2
            (fun a b ->
              Alcotest.(check bool) "area to printed precision" true
                (Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs b)))
            [ dx; dy; dr ] [ x; y; rad ])
    records

let test_result_roundtrip () =
  let results = Lazy.force evaluated in
  Alcotest.(check bool) "results present" true (results <> []);
  List.iter
    (fun (r : Stream.result) ->
      match Stream.parse_result (Stream.result_line r) with
      | Error e -> Alcotest.fail ("result did not parse: " ^ e)
      | Ok d ->
          (* Bit-exact, floats included: the stretches are reconstructed
             from the integer cost numerators by the same function the
             runner derived them with. *)
          Alcotest.(check bool)
            (Printf.sprintf "seq %d round-trips exactly" r.Stream.rseq)
            true (d = r))
    results

(* --- the in-place result reader against the tree decoder ------------ *)

(* The tree decoder [Stream.parse_result] replaced, kept as the
   reference: [Json.parse], then pattern matches over the tree. *)
module Tree_reference = struct
  module Json = Rtr_obs.Json
  module Runner = Rtr_sim.Runner
  module Scenario = Rtr_sim.Scenario

  let ( let* ) = Result.bind
  let req what = function Some x -> Ok x | None -> Error ("bad " ^ what)
  let as_int = function Json.Int i -> Some i | _ -> None

  let as_opt_int = function
    | Json.Null -> Some None
    | Json.Int i -> Some (Some i)
    | _ -> None

  let all_opt f xs =
    List.fold_right
      (fun x acc ->
        match (f x, acc) with Some y, Some ys -> Some (y :: ys) | _ -> None)
      xs (Some [])

  let member_int k j = req k (Option.bind (Json.member k j) as_int)

  let kind_of_int = function
    | 0 -> Some Scenario.Recoverable
    | 1 -> Some Scenario.Irrecoverable
    | _ -> None

  let case_of_json = function
    | Json.Arr
        [ Json.Int initiator; Json.Int trigger; Json.Int dst; Json.Int k; sa ]
      -> (
        match (kind_of_int k, as_opt_int sa) with
        | Some kind, Some shortest_after ->
            Some { Scenario.initiator; trigger; dst; kind; shortest_after }
        | _ -> None)
    | _ -> None

  let result_row_of_json = function
    | Json.Arr
        [
          case;
          Json.Int rtr_p1_hops;
          Json.Arr p1_bytes;
          Json.Bool rtr_p1_completed;
          Json.Bool rtr_recovered;
          rtr_cost;
          Json.Int rtr_route_bytes;
          Json.Int rtr_wasted_tx;
          Json.Int rtr_calcs;
          Json.Bool fcp_delivered;
          fcp_cost;
          Json.Int fcp_calcs;
          Json.Arr fcp_bytes;
          Json.Int fcp_wasted_tx;
          Json.Bool mrc_delivered;
          mrc_cost;
        ] -> (
        match
          ( case_of_json case,
            all_opt as_int p1_bytes,
            as_opt_int rtr_cost,
            as_opt_int fcp_cost,
            all_opt as_int fcp_bytes,
            as_opt_int mrc_cost )
        with
        | ( Some case,
            Some rtr_p1_bytes,
            Some rtr_cost,
            Some fcp_cost,
            Some fcp_hop_bytes,
            Some mrc_cost ) ->
            let shortest_after = case.Scenario.shortest_after in
            let stretch = Runner.stretch_of_cost ~shortest_after in
            Some
              {
                Runner.case;
                rtr_p1_hops;
                rtr_p1_bytes;
                rtr_p1_completed;
                rtr_recovered;
                rtr_cost;
                rtr_stretch = stretch rtr_cost;
                rtr_route_bytes;
                rtr_wasted_tx;
                rtr_calcs;
                fcp_delivered;
                fcp_cost;
                fcp_stretch = stretch fcp_cost;
                fcp_calcs;
                fcp_hop_bytes;
                fcp_wasted_tx;
                mrc_delivered;
                mrc_cost;
                mrc_stretch = stretch mrc_cost;
              }
        | _ -> None)
    | _ -> None

  let result_of_json j =
    let* rseq = member_int "seq" j in
    let* rtopo = member_int "topo" j in
    let* results =
      req "r"
        (match Json.member "r" j with
        | Some (Json.Arr xs) -> all_opt result_row_of_json xs
        | _ -> None)
    in
    Ok { Stream.rseq; rtopo; results }

  let parse_result line = Result.bind (Json.parse line) result_of_json
end

(* Real result lines of at most 4 kB (short enough that a mutated line
   still decodes often, so values get compared, not only errors; they
   hold every slot kind, [null] costs included). *)
let result_lines =
  lazy
    (Array.of_list
       (List.filter
          (fun l -> String.length l <= 4096)
          (List.map Stream.result_line (Lazy.force evaluated))))

(* Mutations of a result line: the byte-level damage of test_obs's
   pinned corpus (flips, truncations, splices), member-level rewrites
   of the tree (reordered, duplicated, extra members; rows one field
   short or long; [null] in any slot), number and literal tokens
   swapped for ones an integer slot must refuse or may take, and
   whitespace wherever JSON allows it. *)
module Mutate = struct
  module Json = Rtr_obs.Json
  open QCheck.Gen

  let syntax = {|0123456789-+.eE"\{}[],: ntf|}

  let flip s =
    let* i = int_bound (String.length s - 1) in
    let* c =
      oneof
        [
          map Char.chr (int_bound 255);
          map (String.get syntax) (int_bound (String.length syntax - 1));
        ]
    in
    let b = Bytes.of_string s in
    Bytes.set b i c;
    return (Bytes.to_string b)

  let truncate s =
    let+ i = int_bound (String.length s - 1) in
    String.sub s 0 i

  let splice lines s =
    let* other = oneofa lines in
    let* i = int_bound (String.length s) in
    let+ j = int_bound (String.length other) in
    String.sub s 0 i ^ String.sub other j (String.length other - j)

  (* Tokens a number or literal may be replaced by: floats and
     out-of-range literals an integer slot refuses, 19-digit, zero-padded
     and extreme integers it takes, and the other scalars. *)
  let replacements =
    [| "1.0"; "1e0"; "-0.0"; "1234567890123456789"; "9999999999999999999";
       "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
       "-4611686018427387905"; "007"; "-0"; "0"; "1"; "2"; "-1"; "null";
       "true"; "false"; "\"1\""; "[]"; "{}" |]

  (* [(start, stop)] of every number and literal token. *)
  let tokens s =
    let n = String.length s in
    let is_tok c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' | 'a' .. 'z' -> true
      | _ -> false
    in
    let rec go i acc =
      if i >= n then List.rev acc
      else if is_tok s.[i] && (i = 0 || not (is_tok s.[i - 1])) then (
        let j = ref i in
        while !j < n && is_tok s.[!j] do incr j done;
        go !j ((i, !j) :: acc))
      else go (i + 1) acc
    in
    Array.of_list (go 0 [])

  let swap_token s =
    let toks = tokens s in
    if toks = [||] then return s
    else
      let* i, j = oneofa toks in
      let+ r = oneofa replacements in
      String.sub s 0 i ^ r ^ String.sub s j (String.length s - j)

  (* Whitespace at the first place at or after a random offset where
     JSON allows it. *)
  let whitespace s =
    let n = String.length s in
    let rec spot i =
      if i = 0 || i = n || String.contains "[{,:" s.[i - 1]
         || String.contains "]},:" s.[i]
      then i
      else spot (i + 1)
    in
    let* i = map spot (int_bound n) in
    let+ ws = oneofl [ " "; "\t"; "\n"; "\r"; "  \n " ] in
    String.sub s 0 i ^ ws ^ String.sub s i (n - i)

  let scalar =
    oneofl
      [ Json.Int 0; Json.Int 7; Json.Int (-3); Json.Float 1.5; Json.Null;
        Json.Bool true; Json.String "x"; Json.String "rtr-shard-footer/1";
        Json.Arr []; Json.Arr [ Json.Int 1; Json.Null ]; Json.Obj [];
        Json.Obj [ ("seq", Json.Int 1) ] ]

  (* [null] in place of one randomly chosen value of the tree. *)
  let rec null_leaf j =
    match j with
    | Json.Arr xs when xs <> [] ->
        let* i = int_bound (List.length xs - 1) in
        let* deeper = bool in
        let+ x =
          if deeper then null_leaf (List.nth xs i) else return Json.Null
        in
        Json.Arr (List.mapi (fun k y -> if k = i then x else y) xs)
    | Json.Obj kvs when kvs <> [] ->
        let* i = int_bound (List.length kvs - 1) in
        let+ v = null_leaf (snd (List.nth kvs i)) in
        Json.Obj
          (List.mapi (fun k (key, w) -> (key, if k = i then v else w)) kvs)
    | _ -> return Json.Null

  (* A row of the [r] array one field short or one field long. *)
  let row_arity kvs =
    match List.assoc_opt "r" kvs with
    | Some (Json.Arr (_ :: _ as rows)) ->
        let* i = int_bound (List.length rows - 1) in
        let+ longer = bool in
        let change = function
          | Json.Arr fields when longer -> Json.Arr (fields @ [ Json.Int 0 ])
          | Json.Arr fields ->
              Json.Arr
                (List.filteri (fun k _ -> k < List.length fields - 1) fields)
          | row -> row
        in
        let rows =
          List.mapi (fun k row -> if k = i then change row else row) rows
        in
        List.map
          (fun (k, v) -> if k = "r" then (k, Json.Arr rows) else (k, v))
          kvs
    | _ -> return kvs

  let members s =
    match Json.parse s with
    | Ok (Json.Obj kvs) ->
        let* kvs =
          oneof
            [
              shuffle_l kvs;
              (let* key = oneofl [ "seq"; "topo"; "r" ] in
               let* v =
                 match List.assoc_opt key kvs with
                 | Some v -> oneof [ scalar; return v ]
                 | None -> scalar
               in
               let+ front = bool in
               if front then (key, v) :: kvs else kvs @ [ (key, v) ]);
              (let* key = oneofl [ "x"; "format"; "seqq"; ""; "r " ] in
               let* v = scalar in
               let+ front = bool in
               if front then (key, v) :: kvs else kvs @ [ (key, v) ]);
              row_arity kvs;
              map
                (function Json.Obj nulled -> nulled | _ -> kvs)
                (null_leaf (Json.Obj kvs));
            ]
        in
        return (Json.to_string (Json.Obj kvs))
    | _ -> return s

  let once lines s =
    if s = "" then return s
    else
      frequency
        [
          (2, flip s); (1, truncate s); (1, splice lines s); (3, swap_token s);
          (2, whitespace s); (4, members s);
        ]

  let line lines =
    let* base = oneofa lines in
    let* steps = int_range 1 3 in
    let rec go k s = if k = 0 then return s else once lines s >>= go (k - 1) in
    go steps base
end

let decoded_ok = ref 0

let reader_matches_tree =
  QCheck.Test.make ~name:"in-place result reader = tree decoder" ~count:3000
    (QCheck.make ~print:String.escaped
       (QCheck.Gen.delay (fun () -> Mutate.line (Lazy.force result_lines))))
    (fun line ->
      match (Stream.parse_result line, Tree_reference.parse_result line) with
      | Ok a, Ok b ->
          incr decoded_ok;
          compare a b = 0
      | Error _, Error _ -> true
      | Ok _, Error e -> QCheck.Test.fail_reportf "reader accepts; tree: %s" e
      | Error e, Ok _ -> QCheck.Test.fail_reportf "tree accepts; reader: %s" e)

let test_reader_matches_tree () =
  decoded_ok := 0;
  QCheck.Test.check_exn reader_matches_tree;
  (* The property must compare values, not only agree on errors. *)
  if !decoded_ok < 500 then
    Alcotest.failf "only %d of 3000 mutated lines decoded" !decoded_ok;
  (* Every unmutated line decodes the same both ways, and a line whose
     first [format] member names the footer format is a shard footer,
     not a shard record, even though it decodes as a result. *)
  Array.iter
    (fun line ->
      Alcotest.(check bool) "unmutated line" true
        (Stream.parse_result line = Tree_reference.parse_result line);
      let tagged =
        {|{"format":"rtr-shard-footer/1",|}
        ^ String.sub line 1 (String.length line - 1)
      in
      Alcotest.(check bool) "footer-tagged line decodes" true
        (Result.is_ok (Stream.parse_result tagged));
      Alcotest.(check bool) "footer-tagged line is no shard record" true
        (Result.is_error (Stream.parse_shard_record tagged));
      Alcotest.(check bool) "untagged line is a shard record" true
        (Stream.parse_shard_record line = Stream.parse_result line))
    (Lazy.force result_lines)

(* --- episode records and stream versioning --------------------------- *)

(* Tiny synthetic fixtures: the codec is plain data, no topology
   needed. *)
let tiny_header =
  {
    Stream.seed = 1;
    mrc_k = None;
    rec_quota = 1;
    irr_quota = 0;
    topos =
      [ { Stream.as_name = "tiny"; areas = 1; rec_cases = 1; irr_cases = 0; records = 1 } ];
    count = 1;
  }

let tiny_record ~episodes =
  {
    Stream.seq = 0;
    topo = 0;
    area = (1.0, 2.0, 3.0);
    failed_nodes = [ 1 ];
    failed_links = [ 0; 2 ];
    episodes;
    cases =
      [
        {
          Rtr_sim.Scenario.initiator = 0;
          trigger = 1;
          dst = 2;
          kind = Rtr_sim.Scenario.Recoverable;
          shortest_after = Some 7;
        };
      ];
  }

let tiny_episodes =
  [
    {
      Rtr_sim.Scenario.at_cs = 25;
      fail_nodes = [ 1; 2 ];
      fail_links = [ 0 ];
      restore_nodes = [];
      restore_links = [ 3; 4 ];
    };
    {
      Rtr_sim.Scenario.at_cs = 75;
      fail_nodes = [];
      fail_links = [];
      restore_nodes = [ 1 ];
      restore_links = [ 0 ];
    };
  ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_episode_record_roundtrip () =
  (* Episodes are integer-only, so the round-trip is exact — including
     empty halves and multiple events per record. *)
  let r = tiny_record ~episodes:tiny_episodes in
  match Stream.parse_scenario (Stream.scenario_line r) with
  | Error e -> Alcotest.fail ("episode record did not parse: " ^ e)
  | Ok d -> Alcotest.(check bool) "round-trips exactly" true (d = r)

let test_v1_stream_bit_identical () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "s.jsonl" in
  (* Episode-free records write the v1 format, byte for byte: no "ep"
     key, no version bump — a pre-episode reader still accepts the
     file and old streams hash identically. *)
  let plain = tiny_record ~episodes:[] in
  Stream.write path tiny_header [ plain ];
  let content = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string) "byte-identical to a v1 writer"
    (Stream.header_line tiny_header ^ "\n" ^ Stream.scenario_line plain ^ "\n")
    content;
  Alcotest.(check bool) "tagged rtr-stream/1" true
    (contains content "\"rtr-stream/1\"");
  Alcotest.(check bool) "no ep key on episode-free records" true
    (not (contains content "\"ep\""));
  let h, next = open_stream path in
  Alcotest.(check bool) "v1 header decodes" true (h = tiny_header);
  (match next () with
  | Some d ->
      Alcotest.(check bool) "v1 record decodes with no episodes" true
        (d = plain && d.Stream.episodes = [])
  | None -> Alcotest.fail "record missing");
  ignore (next ());
  (* Any record carrying episodes promotes the whole stream to v2. *)
  let with_ep = tiny_record ~episodes:tiny_episodes in
  Stream.write path tiny_header [ with_ep ];
  let v2 = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string) "v2 header emitted"
    (Stream.header_line ~format:Stream.format_stream_v2 tiny_header
    ^ "\n"
    ^ Stream.scenario_line with_ep
    ^ "\n")
    v2;
  let h2, next2 = open_stream path in
  Alcotest.(check bool) "v2 header decodes" true (h2 = tiny_header);
  (match next2 () with
  | Some d -> Alcotest.(check bool) "episodes survive the file" true (d = with_ep)
  | None -> Alcotest.fail "record missing");
  ignore (next2 ())

let replace_first ~sub ~by s =
  let n = String.length s and m = String.length sub in
  let rec find i =
    if i + m > n then invalid_arg "replace_first"
    else if String.sub s i m = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)

(* Hostile files: every way a stream can be broken comes back as a
   typed [Error] naming the file, never an exception. *)
let test_hostile_headers () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "hostile.jsonl" in
  let header = Stream.header_line tiny_header in
  let record = Stream.scenario_line (tiny_record ~episodes:[]) in
  let expect_error what content =
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc content);
    (match Stream.read_header path with
    | Ok _ -> Alcotest.failf "read_header accepted %s" what
    | Error e ->
        Alcotest.(check bool) (what ^ ": error names the file") true
          (contains e path));
    match Stream.open_reader path with
    | Ok _ -> Alcotest.failf "open_reader accepted %s" what
    | Error _ -> ()
  in
  expect_error "an empty file" "";
  expect_error "garbage" "garbage\n";
  expect_error "a truncated header"
    (String.sub header 0 (String.length header / 2));
  expect_error "binary bytes" "\000\255\254{\n";
  expect_error "a record in the header's place" (record ^ "\n");
  expect_error "an unknown format tag"
    (replace_first ~sub:"rtr-stream/1" ~by:"rtr-stream/9" header ^ "\n");
  expect_error "an MRC configuration count below 2"
    (replace_first ~sub:{|"mrc_k":null|} ~by:{|"mrc_k":1|} header ^ "\n");
  (match Stream.read_header (Filename.concat dir "missing.jsonl") with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error _ -> ());
  match Stream.open_reader dir with
  | Ok _ -> Alcotest.fail "a directory accepted as a stream"
  | Error _ -> ()

let test_hostile_records () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "hostile.jsonl" in
  let header = Stream.header_line tiny_header in
  let record = Stream.scenario_line (tiny_record ~episodes:[]) in
  List.iter
    (fun (what, bad) ->
      Out_channel.with_open_bin path (fun oc ->
          List.iter
            (fun l -> Out_channel.output_string oc (l ^ "\n"))
            [ header; record; bad; record ]);
      match Stream.open_reader path with
      | Error e -> Alcotest.failf "%s: header rejected: %s" what e
      | Ok (_, pull) -> (
          (match pull () with
          | Some (Ok _) -> ()
          | _ -> Alcotest.failf "%s: the good first record is lost" what);
          (match pull () with
          | Some (Error e) ->
              Alcotest.(check bool) (what ^ ": error names the file") true
                (contains e path)
          | Some (Ok _) -> Alcotest.failf "%s: accepted" what
          | None -> Alcotest.failf "%s: stream ended silently" what);
          match pull () with
          | None -> ()
          | Some _ -> Alcotest.failf "%s: reading went on past the error" what))
    [
      ("a truncated record", String.sub record 0 (String.length record / 2));
      ("garbage", "{\"seq\": 1, \"bogus\"");
      ("the header again", header);
      ("an empty line", "");
      ( "a record missing its cases",
        replace_first ~sub:"\"cases\"" ~by:"\"xases\"" record );
    ]

(* --- the staged file pipeline vs the in-memory collectors ----------- *)

let check_same_data label (a : Experiments.topo_data list)
    (b : Experiments.topo_data list) =
  Alcotest.(check int) (label ^ ": topology count") (List.length a)
    (List.length b);
  List.iter2
    (fun (x : Experiments.topo_data) (y : Experiments.topo_data) ->
      Alcotest.(check string)
        (label ^ ": preset")
        x.Experiments.preset.Isp.as_name y.Experiments.preset.Isp.as_name;
      Alcotest.(check int)
        (label ^ ": mrc configs")
        x.Experiments.mrc_configs y.Experiments.mrc_configs;
      Alcotest.(check bool)
        (label ^ ": recoverable identical")
        true
        (x.Experiments.recoverable = y.Experiments.recoverable);
      Alcotest.(check bool)
        (label ^ ": irrecoverable identical")
        true
        (x.Experiments.irrecoverable = y.Experiments.irrecoverable))
    a b

let test_file_pipeline_matches_collect () =
  let c = Lazy.force config in
  let header, records = Lazy.force generated in
  with_tmpdir @@ fun dir ->
  let stream_path = Filename.concat dir "scenarios.jsonl" in
  let shard_path i = Filename.concat dir (Printf.sprintf "shard%d.jsonl" i) in
  Stream.write stream_path header records;
  (* The written stream re-reads to the same header and records. *)
  Alcotest.(check bool) "header survives the file" true
    (Stream.read_header stream_path = Ok header);
  evaluate_shard ~stream_path ~path:(shard_path 0) ~resume:false ~shard:0
    ~shards:2;
  evaluate_shard ~stream_path ~path:(shard_path 1) ~resume:false ~shard:1
    ~shards:2;
  let from_files =
    Experiments.reduce_shards ~header
      [ Shard_store.load (shard_path 0); Shard_store.load (shard_path 1) ]
  in
  check_same_data "files vs collect" from_files (Experiments.collect c)

(* --- crash and resume ------------------------------------------------ *)

(* Chop the shard's footer and half of its last record, leaving an
   unterminated torn tail — the footprint of a writer killed mid
   [append]. *)
let kill_tail path =
  let content = In_channel.with_open_text path In_channel.input_all in
  let lines =
    match List.rev (String.split_on_char '\n' content) with
    | "" :: rev -> List.rev rev
    | rev -> List.rev rev
  in
  match List.rev lines with
  | _footer :: last :: keep_rev ->
      let oc = open_out path in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        (List.rev keep_rev);
      output_string oc (String.sub last 0 (min 50 (String.length last)));
      close_out oc
  | _ -> Alcotest.fail "shard too short to truncate"

let counter_of snap name =
  Option.value ~default:0 (Metrics.Snapshot.counter snap name)

let test_crash_resume () =
  let header, records = Lazy.force generated in
  with_tmpdir @@ fun dir ->
  let stream_path = Filename.concat dir "scenarios.jsonl" in
  let shard_path i = Filename.concat dir (Printf.sprintf "shard%d.jsonl" i) in
  Stream.write stream_path header records;
  evaluate_shard ~stream_path ~path:(shard_path 0) ~resume:false ~shard:0
    ~shards:2;
  evaluate_shard ~stream_path ~path:(shard_path 1) ~resume:false ~shard:1
    ~shards:2;
  let uninterrupted =
    Experiments.reduce_shards ~header
      [ Shard_store.load (shard_path 0); Shard_store.load (shard_path 1) ]
  in
  let intact_records = (Shard_store.load (shard_path 0)).Shard_store.results in
  (* Kill shard 0 mid-record. *)
  kill_tail (shard_path 0);
  (* The loader refuses the torn shard outright. *)
  (match Shard_store.load (shard_path 0) with
  | _ -> Alcotest.fail "loader accepted a torn shard"
  | exception Failure _ -> ());
  (* Resume: the torn tail is dropped, committed records are kept, and
     only the missing work re-runs. *)
  let before = Metrics.snapshot () in
  evaluate_shard ~stream_path ~path:(shard_path 0) ~resume:true ~shard:0
    ~shards:2;
  let after = Metrics.snapshot () in
  Alcotest.(check int) "one torn tail truncated" 1
    (counter_of after "checkpoint.torn_tail"
    - counter_of before "checkpoint.torn_tail");
  Alcotest.(check int) "one shard resumed" 1
    (counter_of after "checkpoint.resumed"
    - counter_of before "checkpoint.resumed");
  Alcotest.(check int) "only the killed record re-ran" 1
    (counter_of after "checkpoint.commits"
    - counter_of before "checkpoint.commits");
  (* The header and each complete record are parsed once; the torn
     tail is not a line at all. *)
  Alcotest.(check int) "one parse per complete line"
    (1 + (List.length intact_records - 1))
    (counter_of after "shard_store.lines_parsed"
    - counter_of before "shard_store.lines_parsed");
  let resumed = Shard_store.load (shard_path 0) in
  Alcotest.(check int) "record count restored"
    (List.length intact_records)
    (List.length resumed.Shard_store.results);
  let recovered =
    Experiments.reduce_shards ~header
      [ resumed; Shard_store.load (shard_path 1) ]
  in
  check_same_data "resumed vs uninterrupted" recovered uninterrupted;
  (* The rendered report is byte-identical too. *)
  Alcotest.(check string) "table3 bytes"
    (Report.render_table (Experiments.table3 uninterrupted))
    (Report.render_table (Experiments.table3 recovered));
  (* Resuming a complete shard is a no-op. *)
  match
    Shard_store.open_writer ~path:(shard_path 0) ~resume:true ~shard:0
      ~shards:2 ~count:header.Stream.count
  with
  | Shard_store.Complete -> ()
  | Shard_store.Writer _ -> Alcotest.fail "complete shard reopened as writer"

(* Damage a complete shard's tail in three ways a crash or a stray
   write can leave it; each resume must keep exactly the shard's
   records, count one truncation and one resume, and reduce to the
   uninterrupted report. *)
let test_resume_tail_edges () =
  let header, records = Lazy.force generated in
  with_tmpdir @@ fun dir ->
  let stream_path = Filename.concat dir "scenarios.jsonl" in
  let shard_path i = Filename.concat dir (Printf.sprintf "shard%d.jsonl" i) in
  Stream.write stream_path header records;
  List.iter
    (fun shard ->
      evaluate_shard ~stream_path ~path:(shard_path shard) ~resume:false ~shard
        ~shards:2)
    [ 0; 1 ];
  let load_both () =
    List.map (fun i -> Shard_store.load (shard_path i)) [ 0; 1 ]
  in
  let table3 shards =
    Report.render_table
      (Experiments.table3 (Experiments.reduce_shards ~header shards))
  in
  let uninterrupted = table3 (load_both ()) in
  let intact =
    Array.init 2 (fun i ->
        In_channel.with_open_text (shard_path i) In_channel.input_all)
  in
  let seqs_of i =
    List.map
      (fun (r : Stream.result) -> r.Stream.rseq)
      (Shard_store.load (shard_path i)).Shard_store.results
  in
  let intact_seqs = Array.init 2 seqs_of in
  (* Rewrite shard [i] as its header and record lines followed by
     [make ~records ~footer], built from the intact record lines and
     footer line. *)
  let damage i make =
    let lines =
      String.split_on_char '\n' intact.(i)
      |> List.filter (fun l -> l <> "")
    in
    let hline = List.hd lines in
    let rev = List.rev (List.tl lines) in
    let footer = List.hd rev and records = List.rev (List.tl rev) in
    Out_channel.with_open_text (shard_path i) (fun oc ->
        List.iter
          (fun l ->
            output_string oc l;
            output_char oc '\n')
          (hline :: records);
        output_string oc (make ~records ~footer))
  in
  let resume label i =
    let before = Metrics.snapshot () in
    let header, next = open_stream stream_path in
    match
      Shard_store.open_writer ~path:(shard_path i) ~resume:true ~shard:i
        ~shards:2 ~count:header.Stream.count
    with
    | Shard_store.Complete -> Alcotest.failf "%s: damaged shard complete" label
    | Shard_store.Writer (w, committed) ->
        let after = Metrics.snapshot () in
        let delta name = counter_of after name - counter_of before name in
        Alcotest.(check (list int))
          (label ^ ": committed seqs")
          intact_seqs.(i)
          (List.filter committed (List.init header.Stream.count Fun.id));
        Alcotest.(check int)
          (label ^ ": torn tail") 1
          (delta "checkpoint.torn_tail");
        Alcotest.(check int)
          (label ^ ": resumed") 1
          (delta "checkpoint.resumed");
        evaluate_into ~header ~next ~shard:i ~shards:2 w committed;
        delta "shard_store.lines_parsed"
  in
  let restore () =
    Array.iteri
      (fun i content ->
        Out_channel.with_open_text (shard_path i) (fun oc ->
            output_string oc content))
      intact
  in
  (* Cut inside the footer line on both shards: every record is kept,
     and the new footers list no topology, so reduce takes every MRC
     size from the isolation assignment. *)
  List.iter
    (fun i ->
      damage i (fun ~records:_ ~footer ->
          String.sub footer 0 (String.length footer / 2));
      let parsed = resume (Printf.sprintf "torn footer, shard %d" i) i in
      Alcotest.(check int) "torn footer: one parse per complete line"
        (1 + List.length intact_seqs.(i))
        parsed)
    [ 0; 1 ];
  let resumed = load_both () in
  List.iter
    (fun (l : Shard_store.loaded) ->
      Alcotest.(check (list (pair string int)))
        "resumed footer lists no topology" [] l.Shard_store.mrc)
    resumed;
  Alcotest.(check string) "torn footers: table3 bytes" uninterrupted
    (table3 resumed);
  restore ();
  (* A complete record after a complete footer. *)
  damage 0 (fun ~records ~footer ->
      footer ^ "\n" ^ List.nth records (List.length records - 1) ^ "\n");
  ignore (resume "record after footer" 0);
  Alcotest.(check string) "record after footer: table3 bytes" uninterrupted
    (table3 (load_both ()));
  restore ();
  (* A complete footer whose record count is one too many. *)
  damage 1 (fun ~records ~footer ->
      let module Json = Rtr_obs.Json in
      match Json.parse footer with
      | Ok (Json.Obj kvs) ->
          Json.to_string
            (Json.Obj
               (List.map
                  (function
                    | "records", _ ->
                        ("records", Json.Int (List.length records + 1))
                    | kv -> kv)
                  kvs))
          ^ "\n"
      | _ -> Alcotest.fail "intact footer did not parse");
  ignore (resume "footer overcounts" 1);
  Alcotest.(check string) "footer overcounts: table3 bytes" uninterrupted
    (table3 (load_both ()))

let suite =
  [
    Alcotest.test_case "episode record round-trip" `Quick
      test_episode_record_roundtrip;
    Alcotest.test_case "v1 streams stay bit-identical" `Quick
      test_v1_stream_bit_identical;
    Alcotest.test_case "hostile headers are typed errors" `Quick
      test_hostile_headers;
    Alcotest.test_case "hostile records are typed errors" `Quick
      test_hostile_records;
    Alcotest.test_case "header round-trip" `Slow test_header_roundtrip;
    Alcotest.test_case "scenario round-trip" `Slow test_scenario_roundtrip;
    Alcotest.test_case "result round-trip" `Slow test_result_roundtrip;
    Alcotest.test_case "result reader = tree decoder" `Slow
      test_reader_matches_tree;
    Alcotest.test_case "file pipeline = collect" `Slow
      test_file_pipeline_matches_collect;
    Alcotest.test_case "crash, resume, identical report" `Slow
      test_crash_resume;
    Alcotest.test_case "resume: torn footer, trailing lines" `Slow
      test_resume_tail_edges;
  ]
