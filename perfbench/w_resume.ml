(* resume: crash-resume and reduce, unit = result record read or
   written: one test case's result.  A shard line carries the results
   of one scenario, a varying number of them, so per-case records are
   the unit that tracks the codec's work.

   Set-up draws a repro stream at twice repro's quota and evaluates it
   into two complete shard files.  Each round tears both shard tails
   mid-record (the footer is lost and the last record cut in half),
   resumes them ([Shard_store.open_writer ~resume:true],
   [Pipeline.evaluate] on the missing records, [Shard_store.finish]),
   loads them ([Shard_store.load]) and reduces them
   ([Experiments.reduce_shards]) — the path behind [rtr_sim evaluate
   --resume] and [rtr_sim reduce].  The stream/shard codec is most of
   the work; most of the rest is MRC, which [reduce_shards] rebuilds for
   every topology no resumed footer lists. *)

open Common
module Shard_store = Rtr_sim.Shard_store

let shards = 2

(* Input sets per run: one stream, with its own pair of shards, each.
   The torn record of each shard is always in the stream's last
   topology, so every round does the same MRC work.  What varies
   between streams is the Runner work on the torn records, so streams
   are large (twice the repro quota, 2 MB of shards) to keep it a small
   share of a round; four of them keep set-up a few seconds. *)
let sets = 4
let set_quota = 2 * quota

let path set shard =
  Filename.concat (work_dir ()) (Printf.sprintf "resume-%d-%d.shard" set shard)

let of_shard shard records =
  List.filter
    (fun (r : Stream.scenario) -> r.Stream.seq mod shards = shard)
    records

(* Minor words allocated by the codec (resume re-read and load). *)
let codec_words = ref 0.

let evaluate_into header records ~resume set shard =
  let opened, w_open =
    Spans.with_ "shard_store.open_writer" (fun () ->
        Bench.words (fun () ->
            Shard_store.open_writer ~path:(path set shard) ~resume ~shard ~shards
              ~count:header.Stream.count))
  in
  match opened with
  | Shard_store.Complete -> failwith "resume: shard unexpectedly complete"
  | Shard_store.Writer (w, committed) ->
      codec_words := !codec_words +. w_open;
      let mine = of_shard shard records in
      let todo =
        List.filter
          (fun (r : Stream.scenario) -> not (committed r.Stream.seq))
          mine
      in
      let cases rs =
        List.fold_left
          (fun acc (r : Stream.scenario) -> acc + List.length r.Stream.cases)
          0 rs
      in
      let kept = cases mine - cases todo in
      let mrc =
        Spans.with_ "pipeline.evaluate" (fun () ->
            Pipeline.evaluate ~jobs:1 ~header ~next:(stream_list todo)
              ~emit:(fun r ->
                Spans.with_ "shard_store.append" (fun () ->
                    Shard_store.append w r))
              ())
      in
      Spans.with_ "shard_store.finish" (fun () -> Shard_store.finish w ~mrc);
      (kept, cases todo)

let setup seed set =
  let header, records =
    Pipeline.generate ~presets:Isp.table2 ~rec_quota:set_quota
      ~irr_quota:set_quota ~seed ~mrc_k:None ()
  in
  for shard = 0 to shards - 1 do
    ignore (evaluate_into header records ~resume:false set shard)
  done;
  (header, records)

let read_file p = In_channel.with_open_bin p In_channel.input_all

let write_file p s = Out_channel.with_open_bin p (fun oc -> output_string oc s)

(* A complete shard cut the way a crash leaves it: the footer gone and
   the last record torn in half. *)
let torn content =
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' content)
  in
  let n = List.length lines in
  (* header, records..., footer *)
  let keep = List.filteri (fun i _ -> i < n - 2) lines in
  let half = List.nth lines (n - 2) in
  String.concat "\n" keep ^ "\n" ^ String.sub half 0 (String.length half / 2)

type set = {
  header : Stream.header;
  records : Stream.scenario list;
  pristine : string array;  (** the complete shards *)
  cut : string array;  (** the same, torn *)
  reference : string;  (** table3 digest of the uninterrupted reduction *)
}

(* Shares of the traced rounds' time, for the detail line. *)
let codec_share = ref "" and mrc_share = ref ""

let run ~seed ~seconds =
  let streams =
    Bench.setup ~sets (fun k -> setup (Bench.sub_seed ~seed k) k)
  in
  let load_all k =
    let l, w =
      Bench.words (fun () ->
          List.init shards (fun s -> Shard_store.load (path k s)))
    in
    codec_words := !codec_words +. w;
    l
  in
  let inputs =
    Array.mapi
      (fun k (header, records) ->
        let pristine = Array.init shards (fun s -> read_file (path k s)) in
        {
          header;
          records;
          pristine;
          cut = Array.map torn pristine;
          reference =
            table3_digest (Experiments.reduce_shards ~header (load_all k));
        })
      streams
  in
  let per_round = ref 0 in
  let words = ref 0. and read = ref 0 in
  let mrc_builds = Hashtbl.create 8 in
  let checkpoint d name = Option.value (List.assoc_opt name d) ~default:0 in
  let round i k =
    let t = inputs.(k) in
    Array.iteri (fun s c -> write_file (path k s) c) t.cut;
    codec_words := 0.;
    let before = Bench.counters () in
    let moved, loaded, data =
      Bench.block "resume.round" (fun () ->
          let moved =
            List.init shards (fun s ->
                evaluate_into t.header t.records ~resume:true k s)
          in
          let loaded = Spans.with_ "shard_store.load" (fun () -> load_all k) in
          let data =
            Spans.with_ "experiments.reduce_shards" (fun () ->
                Experiments.reduce_shards ~header:t.header loaded)
          in
          (moved, loaded, data))
    in
    let d = Bench.delta before (Bench.counters ()) in
    let torn_tail = checkpoint d "checkpoint.torn_tail"
    and resumed = checkpoint d "checkpoint.resumed" in
    Bench.check (torn_tail = shards && resumed = shards) (fun () ->
        Printf.sprintf
          "resume: round %d: checkpoint.torn_tail +%d, checkpoint.resumed +%d \
           for %d torn shards"
          i torn_tail resumed shards);
    (* MRC builds of the round: a resumed shard's footer lists the
       topologies its evaluate built MRC for; reduce_shards rebuilds it
       for every topology no footer lists. *)
    if i >= 0 && Bench.traced () then begin
      let footers =
        List.map (fun (l : Shard_store.loaded) -> l.Shard_store.mrc) loaded
      in
      let build name =
        Hashtbl.replace mrc_builds name
          (1 + Option.value (Hashtbl.find_opt mrc_builds name) ~default:0)
      in
      List.iter (List.iter (fun (name, _) -> build name)) footers;
      List.iter
        (fun (ts : Stream.topo_stat) ->
          let name = ts.Stream.as_name in
          if not (List.exists (List.mem_assoc name) footers) then build name)
        t.header.Stream.topos
    end;
    let kept = List.fold_left (fun acc (kept, _) -> acc + kept) 0 moved in
    let written = List.fold_left (fun acc (_, todo) -> acc + todo) 0 moved in
    let loaded =
      List.fold_left
        (fun acc (l : Shard_store.loaded) ->
          List.fold_left
            (fun acc (r : Stream.result) -> acc + List.length r.Stream.results)
            acc l.Shard_store.results)
        0 loaded
    in
    let n = kept + written + loaded in
    if i = 0 then begin
      per_round := n;
      words := !codec_words;
      read := kept + loaded
    end;
    Bench.add_items n;
    Bench.check (table3_digest data = t.reference) (fun () ->
        "resume: table3 differs from the uninterrupted reduction")
  in
  let elapsed = Bench.run_rounds ~seconds ~sets round in
  Bench.set "checkpoint.torn_tail"
    (float_of_int (Bench.count "checkpoint.torn_tail"));
  Bench.set "checkpoint.resumed"
    (float_of_int (Bench.count "checkpoint.resumed"));
  Bench.set "shard_store.words_per_record" (!words /. float_of_int (max 1 !read));
  if Bench.traced () then begin
    let rounds = float_of_int !Bench.n_rounds in
    let total span = Spans.total_ns ~under:"round" span /. 1e9 /. rounds in
    let per name span = Bench.time name (total span) in
    per "shard_store.resume_s" "shard_store.open_writer";
    per "shard_store.load_s" "shard_store.load";
    per "experiments.reduce_shards_s" "experiments.reduce_shards";
    (* The round's two costs: the codec (resume re-read, appends,
       footer, load) and MRC construction, whose cost per topology a
       replay measures. *)
    let codec =
      List.fold_left
        (fun acc span -> acc +. total span)
        0.
        [
          "shard_store.open_writer";
          "shard_store.append";
          "shard_store.finish";
          "shard_store.load";
        ]
    in
    let mrc_k = inputs.(0).header.Stream.mrc_k in
    let mrc =
      Hashtbl.fold
        (fun name builds acc ->
          let g =
            Rtr_topo.Topology.graph (Isp.load (Option.get (Isp.find name)))
          in
          let t0 = Host.now_ns () in
          Spans.with_ "replay.mrc_for" (fun () ->
              ignore (Pipeline.mrc_for ~mrc_k g));
          acc
          +. float_of_int builds *. float_of_int (Host.now_ns () - t0)
             /. 1e9 /. rounds)
        mrc_builds 0.
    in
    let round_s = total "resume.round" in
    Bench.time "shard_store.codec_s" codec;
    Bench.time "mrc.rebuild_s" mrc;
    codec_share := Printf.sprintf "%.3f" (codec /. round_s);
    mrc_share := Printf.sprintf "%.3f" (mrc /. round_s);
    Bench.time "shard_store.append_us_p50"
      (Bench.pct (Spans.durations ~under:"round" "shard_store.append") 0.5
      /. 1e3);
    (* Bytes the rounds actually ran over, per round. *)
    let mb f =
      let total = ref 0 in
      for r = 0 to !Bench.n_rounds - 1 do
        Array.iter
          (fun c -> total := !total + String.length c)
          (f inputs.(r mod sets))
      done;
      float_of_int !total /. 1e6 /. rounds
    in
    let rate name bytes span = Bench.rate name (bytes /. total span) in
    rate "shard_store.resume_mb_per_s" (mb (fun t -> t.cut))
      "shard_store.open_writer";
    rate "shard_store.load_mb_per_s" (mb (fun t -> t.pristine)) "shard_store.load"
  end;
  ( elapsed,
    !per_round,
    [
      ("table3_digest", inputs.(0).reference);
      ("codec_share", !codec_share);
      ("mrc_share", !mrc_share);
      ( "set0_shard_bytes",
        string_of_int
          (Array.fold_left (fun a s -> a + String.length s) 0 inputs.(0).pristine)
      );
    ] )
