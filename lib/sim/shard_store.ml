module Json = Rtr_obs.Json
module Metrics = Rtr_obs.Metrics

let c_commits = Metrics.counter "checkpoint.commits"
let c_resumed = Metrics.counter "checkpoint.resumed"
let c_torn = Metrics.counter "checkpoint.torn_tail"
let c_results_in = Metrics.counter "stream.results_in"
let c_shards_read = Metrics.counter "stream.shards_read"
let c_lines_parsed = Metrics.counter "shard_store.lines_parsed"

let ( let* ) = Result.bind

type meta = { shard : int; shards : int; count : int }

let header_line m =
  Json.to_string
    (Json.Obj
       [
         ("format", Json.String Stream.format_shard);
         ("shard", Json.Int m.shard);
         ("shards", Json.Int m.shards);
         ("count", Json.Int m.count);
       ])

(* Every shard line this module decodes goes through here, once. *)
let counted decode line =
  Metrics.Counter.incr c_lines_parsed;
  decode line

let as_int = function Json.Int i -> Some i | _ -> None

let member_int k j =
  match Option.bind (Json.member k j) as_int with
  | Some i -> Ok i
  | None -> Error ("bad " ^ k)

let parse_header line =
  let* j = counted Json.parse line in
  let* () =
    match Json.member "format" j with
    | Some (Json.String f) when f = Stream.format_shard -> Ok ()
    | _ -> Error ("shard header is not " ^ Stream.format_shard)
  in
  let* shard = member_int "shard" j in
  let* shards = member_int "shards" j in
  let* count = member_int "count" j in
  Ok { shard; shards; count }

let footer_line ~records ~mrc =
  Json.to_string
    (Json.Obj
       [
         ("format", Json.String Stream.format_footer);
         ("records", Json.Int records);
         ("mrc", Json.Obj (List.map (fun (a, n) -> (a, Json.Int n)) mrc));
         ("complete", Json.Bool true);
       ])

(* A line is a footer iff its first [format] member names the footer
   format.  [None] when it is not; [Error] when it is a malformed
   footer. *)
let footer_of_json j =
  match Json.member "format" j with
  | Some (Json.String f) when f = Stream.format_footer ->
      let r =
        let* records = member_int "records" j in
        let* mrc =
          match Json.member "mrc" j with
          | Some (Json.Obj kvs) ->
              List.fold_right
                (fun (k, v) acc ->
                  let* acc = acc in
                  match as_int v with
                  | Some n -> Ok ((k, n) :: acc)
                  | None -> Error "bad mrc entry")
                kvs (Ok [])
          | _ -> Error "bad mrc"
        in
        let* complete =
          match Json.member "complete" j with
          | Some (Json.Bool b) -> Ok b
          | _ -> Error "bad complete"
        in
        Ok (records, mrc, complete)
      in
      Some r
  | _ -> None

let footer_of_line line =
  match Json.parse line with Error _ -> None | Ok j -> footer_of_json j

(* Split file content into complete lines plus an optional torn tail
   (a final chunk not terminated by a newline — the mark of a killed
   writer). *)
let complete_lines content =
  let parts = String.split_on_char '\n' content in
  let rec go acc = function
    | [] -> (List.rev acc, None)
    | [ "" ] -> (List.rev acc, None)
    | [ tail ] -> (List.rev acc, Some tail)
    | l :: rest -> go (l :: acc) rest
  in
  go [] parts

type writer = { oc : out_channel; mutable records : int }

type opened =
  | Complete
  | Writer of writer * (int -> bool)
      (** the predicate answers "is this seq already committed?" *)

let fresh path meta =
  let oc = open_out path in
  output_string oc (header_line meta);
  output_char oc '\n';
  flush oc;
  Writer ({ oc; records = 0 }, fun _ -> false)

let open_writer ~path ~resume ~shard ~shards ~count =
  let meta = { shard; shards; count } in
  if (not resume) || not (Sys.file_exists path) then fresh path meta
  else begin
    let content = In_channel.with_open_text path In_channel.input_all in
    let lines, torn = complete_lines content in
    match lines with
    | [] -> fresh path meta
    | hline :: rest -> (
        (match parse_header hline with
        | Error msg -> failwith (path ^ ": " ^ msg)
        | Ok m ->
            if m <> meta then
              failwith
                (Printf.sprintf
                   "%s: shard header mismatch (file is shard %d/%d over %d \
                    records; expected %d/%d over %d)"
                   path m.shard m.shards m.count shard shards count));
        (* Keep the longest prefix of parseable result records; anything
           after the first bad line — and any unterminated tail — is a
           torn write from a killed run and is dropped.  Each line is
           read in place as a record; only a line that is not one (the
           footer, or the torn line) is parsed again, as a footer. *)
        let done_seqs = Hashtbl.create 64 in
        let good = ref [] and n_good = ref 0 and footer = ref None in
        let bad = ref false in
        List.iter
          (fun line ->
            if !bad || !footer <> None then bad := true
            else
              match counted Stream.parse_shard_record line with
              | Ok r ->
                  Hashtbl.replace done_seqs r.Stream.rseq ();
                  good := line :: !good;
                  incr n_good
              | Error _ -> (
                  match footer_of_line line with
                  | Some (Ok (records, mrc, complete))
                    when complete && records = !n_good ->
                      footer := Some (records, mrc)
                  | _ -> bad := true))
          rest;
        match !footer with
        | Some _ when not !bad -> Complete
        | _ ->
            let torn = !bad || torn <> None || !footer <> None in
            if torn then begin
              (* Truncate to the last complete record: rewrite the
                 header plus the good prefix, atomically via rename. *)
              Metrics.Counter.incr c_torn;
              let tmp = path ^ ".tmp" in
              let oc = open_out tmp in
              output_string oc (header_line meta);
              output_char oc '\n';
              List.iter
                (fun l ->
                  output_string oc l;
                  output_char oc '\n')
                (List.rev !good);
              close_out oc;
              Sys.rename tmp path
            end;
            Metrics.Counter.incr c_resumed;
            let oc =
              open_out_gen [ Open_wronly; Open_append ] 0o644 path
            in
            Writer ({ oc; records = !n_good }, Hashtbl.mem done_seqs))
  end

let records w = w.records

let append w r =
  output_string w.oc (Stream.result_line r);
  output_char w.oc '\n';
  flush w.oc;
  w.records <- w.records + 1;
  Metrics.Counter.incr c_commits

let finish w ~mrc =
  output_string w.oc (footer_line ~records:w.records ~mrc);
  output_char w.oc '\n';
  flush w.oc;
  close_out w.oc

type loaded = {
  meta : meta;
  results : Stream.result list;
  mrc : (string * int) list;
}

let load path =
  let content = In_channel.with_open_text path In_channel.input_all in
  let lines, torn = complete_lines content in
  if torn <> None then failwith (path ^ ": torn tail; shard is incomplete");
  match lines with
  | [] -> failwith (path ^ ": empty shard file")
  | hline :: rest -> (
      let meta =
        match parse_header hline with
        | Ok m -> m
        | Error msg -> failwith (path ^ ": " ^ msg)
      in
      let rec split acc = function
        | [] -> failwith (path ^ ": no checkpoint footer; shard is incomplete")
        | [ last ] -> (List.rev acc, last)
        | l :: rest -> split (l :: acc) rest
      in
      let records, fline = split [] rest in
      match counted footer_of_line fline with
      | None | Some (Error _) ->
          failwith (path ^ ": no checkpoint footer; shard is incomplete")
      | Some (Ok (n, mrc, complete)) ->
          if not complete then
            failwith (path ^ ": footer marks shard incomplete");
          if n <> List.length records then
            failwith
              (Printf.sprintf "%s: footer says %d records, file has %d" path n
                 (List.length records));
          let results =
            List.map
              (fun line ->
                match counted Stream.parse_result line with
                | Ok r -> r
                | Error msg -> failwith (path ^ ": bad result record: " ^ msg))
              records
          in
          List.iter
            (fun (r : Stream.result) ->
              if r.Stream.rseq mod meta.shards <> meta.shard then
                failwith
                  (Printf.sprintf "%s: seq %d does not belong to shard %d/%d"
                     path r.Stream.rseq meta.shard meta.shards))
            results;
          Metrics.Counter.incr c_shards_read;
          Metrics.Counter.add c_results_in (List.length results);
          { meta; results; mrc })
