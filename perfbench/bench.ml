(* Run-wide measurement state shared by the workloads: repeated set-up,
   timed blocks bracketed by host-speed probes, item and check
   accounting, per-round counter deltas, and the metric values. *)

module Metrics = Rtr_obs.Metrics
module Json = Rtr_obs.Json

let traced () = !Spans.enabled

(* ---- metric values ---- *)

let values : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace values name v

(* Raw durations (any unit) and raw per-second rates, normalised by the
   run's host factor when the run ends; a [raw.<name>] metric, where
   the catalogue has one, keeps the raw figure. *)
let timings : (string, float) Hashtbl.t = Hashtbl.create 32
let rates : (string, float) Hashtbl.t = Hashtbl.create 32
let time name v = Hashtbl.replace timings name v
let rate name v = Hashtbl.replace rates name v

(* ---- checks ---- *)

let attempted = ref 0
let failed = ref 0
let failures : string list ref = ref []

let fail msg =
  incr failed;
  if List.length !failures < 20 then failures := msg :: !failures

let check ok msg = if not ok then fail (msg ())

(* ---- set-up ---- *)

let probes n =
  for _ = 1 to n do
    Host.probe ()
  done

let setup_ns = Host.Buf.create ()
let setup_norm_ns = Host.Buf.create ()

(* Set up input set [k] for each [k < sets], each timed and followed
   by three host probes; [setup_s] is the normalised median over the
   sets.  Set-ups are few and long, so they are normalised by the
   median of the set-up phase's probes, which a few stray probes cannot
   move. *)
let setup ~sets f =
  let first = Host.Buf.length Host.samples in
  probes 3;
  let r =
    Array.init sets (fun k ->
        Gc.compact ();
        let t0 = Host.now_ns () in
        let r = Spans.with_ "setup" (fun () -> f k) in
        Host.Buf.push setup_ns (float_of_int (Host.now_ns () - t0));
        probes 3;
        r)
  in
  let f = Host.factor ~range:(first, Host.Buf.length Host.samples) () in
  Array.iter
    (fun raw -> Host.Buf.push setup_norm_ns (raw *. f))
    (Host.Buf.to_array setup_ns);
  r

(* The seed of input set [k] of a run at [seed]. *)
let sub_seed ~seed k = (seed * 1000) + k

(* ---- timed phase ---- *)

let timed_ns = ref 0.
let items = ref 0
let n_rounds = ref 0

(* Every timed block: its round, raw ns, and the index of the host
   probe taken right after it. *)
let blocks : (int * float * int) list ref = ref []

(* Per timed round: input set and items. *)
let rounds : (int * int) list ref = ref []
let timed_probes = ref (0, 0)

(* The host's speed drifts within a run, so each timed block is
   normalised locally: scaled by the nominal kernel duration over the
   median of the seven probes around it.  A median, because one stray
   probe would otherwise swing its block (and, 1/x being convex, bias
   the rate up in noisy spells).  Returns the normalised ns per
   round. *)
let normalised_rounds () =
  let lo, hi = !timed_probes in
  let per_round = Array.make !n_rounds 0. in
  List.iter
    (fun (r, raw, i) ->
      let a = max lo (i - 3) and b = min (hi - 1) (i + 3) in
      let f = Host.factor ~range:(a, b + 1) () in
      per_round.(r) <- per_round.(r) +. (raw *. f))
    !blocks;
  per_round

(* True during the untimed warm-up round, which fills the libraries'
   caches before anything is timed or counted. *)
let warming = ref false

let pending_ns = ref 0.

(* For workloads that time each call themselves: add [ns] to the timed
   phase; [probe_point] closes a block, probing the host. *)
let account ns = if not !warming then pending_ns := !pending_ns +. ns

let probe_point () =
  if not !warming then begin
    let raw = !pending_ns in
    pending_ns := 0.;
    timed_ns := !timed_ns +. raw;
    Spans.with_ "host.probe" Host.probe;
    blocks := (!n_rounds, raw, Host.Buf.length Host.samples - 1) :: !blocks
  end

(* Raw ns of the last [block], without the probe that follows it. *)
let last_block_ns = ref 0.

(* Time [f] as one block of the timed phase, then probe the host. *)
let block name f =
  let t0 = Host.now_ns () in
  let r = Spans.with_ name f in
  last_block_ns := float_of_int (Host.now_ns () - t0);
  account !last_block_ns;
  probe_point ();
  r

let add_items n =
  if not !warming then begin
    items := !items + n;
    attempted := !attempted + n
  end

(* ---- counters ---- *)

let counters () =
  let snap = Metrics.Snapshot.to_json (Metrics.snapshot ()) in
  match Json.member "counters" snap with
  | Some (Json.Obj kv) ->
      List.filter_map
        (function name, Json.Int v -> Some (name, v) | _ -> None)
        kv
  | _ -> []

let delta before after =
  List.filter_map
    (fun (name, v) ->
      let v0 = Option.value (List.assoc_opt name before) ~default:0 in
      if v - v0 <> 0 then Some (name, v - v0) else None)
    after

(* Counter deltas of the first timed round (input set 0, after the
   warm-up round on the same set): exact work counts of a fixed input.
   Later rounds on other sets may still fill the libraries' caches, so
   they are not compared here; selfcheck.py compares two runs. *)
let round0_counts : (string * int) list option ref = ref None
(* After one untimed warm-up round over input set 0, run rounds over
   the sets in turn until [seconds] of wall time have passed (whole
   rounds only).  [round i k] does round [i]'s timed blocks and checks
   on set [k]; the warm-up round is [round (-1) 0]. *)
let run_rounds ~seconds ~sets round =
  let traced = !Spans.enabled in
  warming := true;
  Spans.enabled := false;
  round (-1) 0;
  Spans.enabled := traced;
  warming := false;
  let first_probe = Host.Buf.length Host.samples in
  Host.probe ();
  let t_start = Host.now_ns () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  let continue = ref true in
  while !continue do
    let k = !n_rounds mod sets in
    let before = if !n_rounds = 0 then counters () else [] in
    let items0 = !items in
    Spans.with_ "round" (fun () -> round !n_rounds k);
    rounds := (k, !items - items0) :: !rounds;
    if !n_rounds = 0 then round0_counts := Some (delta before (counters ()));
    incr n_rounds;
    if Host.now_ns () >= deadline then continue := false
  done;
  timed_probes := (first_probe, Host.Buf.length Host.samples);
  Host.now_ns () - t_start

let count name =
  match !round0_counts with
  | None -> 0
  | Some d -> Option.value (List.assoc_opt name d) ~default:0

(* Minor-heap words allocated by [f]. *)
let words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* Percentile in the form the metrics report ([nan] -> 0). *)
let pct xs p = if Array.length xs = 0 then 0. else Host.percentile xs p
