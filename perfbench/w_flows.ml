(* flows: the flow-level congestion sweep, unit = flow.

   Set-up draws, per Table II AS, one seeded disc failure (as
   [Experiments.congestion_data] does), a [Flowsim.demand] matrix and
   the MRC configurations.  One round evaluates the five schemes on
   every AS at jobs 1: [Flowsim.context], [Flowsim.eval_slice] per
   chunk, then [Flowsim.merge] and [Flowsim.finish].  Flowsim's window
   routing and its outcome cache dominate; its RTR sessions take the
   classic clone-and-repair phase 2. *)

open Common
module Flowsim = Rtr_des.Flowsim
module Scenario = Rtr_sim.Scenario
module Topo_cache = Rtr_sim.Topo_cache

(* Flowsim's RTR-session and outcome caches live per chunk, so the
   flows per chunk set the mix of cache hits against fresh
   [Rtr.start]/[Fcp.run]/[Mrc.recover] calls.  Chunks here have the
   size of the default sweep's ([congestion_data]: 125,000 flows per
   topology over 64 chunks, 1,953 each), so that mix is the sweep's;
   a round evaluates 4 such chunks per AS and scheme. *)
let chunk_flows = 125_000 / 64
let chunks = 4
let flows_per_topo = chunks * chunk_flows

type topo_in = {
  preset : Isp.preset;
  topo : Rtr_topo.Topology.t;
  damage : Rtr_failure.Damage.t;
  flows : Flowsim.flow array;
  mrc : Rtr_baselines.Mrc.t;
}

(* The paper's disc radii, U(100, 300), stratified across the input
   sets: set [k] draws from stratum [bitrev k] of [sets] equal slices,
   so every run covers the whole range evenly (in bit-reversed order,
   any prefix of the sets does too).  A failure's radius drives how
   many flows it breaks, so unstratified draws made items_per_s
   differ from seed to seed by more than the run-to-run noise. *)
let radius_stratum ~sets k =
  (* [sets] is a power of two *)
  let bits = int_of_float (Float.round (Float.log2 (float_of_int sets))) in
  let rec rev i b acc =
    if b = 0 then acc else rev (i lsr 1) (b - 1) ((acc lsl 1) lor (i land 1))
  in
  let s = rev k bits 0 in
  let w = 200. /. float_of_int sets in
  (100. +. (w *. float_of_int s), 100. +. (w *. float_of_int (s + 1)))

(* MRC is topology-only, so every set's set-up builds it (as
   [congestion_data] does per call) but all sets share the first build:
   sixteen copies per AS would only inflate the heap. *)
let mrcs = Hashtbl.create 8

let setup ~radii seed =
  let r_min, r_max = radii in
  List.map
    (fun (preset : Isp.preset) ->
      let topo = Isp.load preset in
      let table = Topo_cache.table (Topo_cache.shared topo) in
      let rng = Rtr_util.Rng.make (seed + preset.Isp.seed + 47) in
      let rec draw tries =
        let s = Scenario.generate topo table rng ~r_min ~r_max () in
        let d = s.Scenario.damage in
        if Rtr_failure.Damage.n_failed_links d > 0 || tries > 64 then d
        else draw (tries + 1)
      in
      let damage = draw 0 in
      let flows =
        Flowsim.demand topo ~n:flows_per_topo ~seed:(seed + preset.Isp.seed + 53)
      in
      let mrc =
        Spans.with_ "mrc.build" (fun () ->
            Rtr_baselines.Mrc.build_auto (Rtr_topo.Topology.graph topo))
      in
      let mrc =
        match Hashtbl.find_opt mrcs preset.Isp.as_name with
        | Some first -> first
        | None ->
            Hashtbl.add mrcs preset.Isp.as_name mrc;
            mrc
      in
      { preset; topo; damage; flows; mrc })
    Isp.table2

let schemes = Experiments.congestion_schemes

let eval ~seed t scheme =
  let fcfg =
    {
      Flowsim.default_config with
      Flowsim.scheme;
      seed = seed + t.preset.Isp.seed;
    }
  in
  let ctx =
    Spans.with_ "flowsim.context" (fun () ->
        Flowsim.context t.topo t.damage ~mrc:t.mrc fcfg)
  in
  let n = Array.length t.flows in
  let name = "flowsim.eval_slice." ^ Flowsim.scheme_name scheme in
  let words = ref 0. in
  let accs =
    Array.init chunks (fun i ->
        Spans.with_ name (fun () ->
            let acc, w =
              Bench.words (fun () ->
                  Flowsim.eval_slice ctx t.flows ~lo:(i * n / chunks)
                    ~hi:((i + 1) * n / chunks))
            in
            words := !words +. w;
            acc))
  in
  let stats =
    Spans.with_ "flowsim.finish" (fun () ->
        let rest = Array.sub accs 1 (chunks - 1) in
        let merged = Array.fold_left Flowsim.merge accs.(0) rest in
        Flowsim.finish ctx merged)
  in
  (stats, !words)

let check t scheme (s : Flowsim.stats) =
  let what = t.preset.Isp.as_name ^ "/" ^ Flowsim.scheme_name scheme in
  Bench.check
    (s.Flowsim.delivered_ratems + s.Flowsim.blackholed_ratems
     + s.Flowsim.dropped_recovery_ratems + s.Flowsim.dropped_no_route_ratems
    = s.Flowsim.offered_ratems)
    (fun () ->
      "flows: " ^ what ^ ": delivered + blackholed + dropped <> offered");
  Bench.check (s.Flowsim.flows = Array.length t.flows) (fun () ->
      Printf.sprintf "flows: %s: %d flows evaluated of %d" what s.Flowsim.flows
        (Array.length t.flows))

(* Input sets per run (one failure and one demand matrix per AS each):
   a 20 s run evaluates about twelve distinct sets, which keeps the
   seed-to-seed spread of items_per_s down. *)
let sets = 16

let run ~seed ~seconds =
  let inputs =
    Bench.setup ~sets (fun k ->
        setup ~radii:(radius_stratum ~sets k) (Bench.sub_seed ~seed k))
  in
  let per_as = Array.make (List.length Isp.table2) 0. in
  let words = ref 0. in
  let digests = Array.make sets None in
  let round i k =
    let data =
      List.mapi
        (fun ai t ->
          let per_scheme =
            List.map
              (fun scheme ->
                let stats, w =
                  Bench.block ("flowsim." ^ t.preset.Isp.as_name) (fun () ->
                      eval ~seed:(Bench.sub_seed ~seed k) t scheme)
                in
                if i >= 0 then per_as.(ai) <- per_as.(ai) +. !Bench.last_block_ns;
                if i = 0 then words := !words +. w;
                check t scheme stats;
                Bench.add_items stats.Flowsim.flows;
                (scheme, stats))
              schemes
          in
          (t.preset, per_scheme))
        inputs.(k)
    in
    let d = digest (Report.render_table (Experiments.congestion_table data)) in
    match digests.(k) with
    | None -> digests.(k) <- Some d
    | Some d0 ->
        Bench.check (d = d0) (fun () ->
            Printf.sprintf
              "flows: congestion table of set %d differs between rounds" k)
  in
  let elapsed = Bench.run_rounds ~seconds ~sets round in
  let per_round = List.length schemes * List.length Isp.table2 * flows_per_topo in
  List.iteri
    (fun ai (p : Isp.preset) ->
      Bench.rate
        ("flowsim.flows_per_s." ^ p.Isp.as_name)
        (float_of_int (!Bench.n_rounds * List.length schemes * flows_per_topo)
        /. (per_as.(ai) /. 1e9)))
    Isp.table2;
  Bench.set "flowsim.words_per_flow" (!words /. float_of_int per_round);
  if Bench.traced () then begin
    let per name span k = Bench.time name (Spans.total_ns span /. 1e9 /. k) in
    let s name span = per name span (float_of_int !Bench.n_rounds) in
    s "flowsim.context_s" "flowsim.context";
    s "flowsim.finish_s" "flowsim.finish";
    per "mrc.build_s" "mrc.build" (float_of_int sets);
    List.iter
      (fun sc ->
        let n = Flowsim.scheme_name sc in
        s ("flowsim.eval_slice_s." ^ n) ("flowsim.eval_slice." ^ n))
      schemes
  end;
  (elapsed, per_round, [ ("congestion_digest", Option.get digests.(0)) ])
