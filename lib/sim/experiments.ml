module Isp = Rtr_topo.Isp
module Delay = Rtr_routing.Delay
module Topo_cache = Rtr_routing.Topo_cache
module Metrics = Rtr_obs.Metrics
module Trace = Rtr_obs.Trace

let c_topologies = Metrics.counter "experiments.topologies"
let c_scenarios_generated = Metrics.counter "experiments.scenarios_generated"
let c_noop_damages = Metrics.counter "experiments.noop_damages"
let h_case_throughput = Metrics.histogram "experiments.cases_per_topology"

type config = {
  presets : Isp.preset list;
  recoverable_per_topo : int;
  irrecoverable_per_topo : int;
  seed : int;
  mrc_k : int option;
  jobs : int;
}

let default_config =
  {
    presets = Isp.table2;
    recoverable_per_topo = 2000;
    irrecoverable_per_topo = 2000;
    seed = 7;
    mrc_k = None;
    jobs = 1;
  }

type topo_data = {
  preset : Isp.preset;
  topo : Rtr_topo.Topology.t;
  mrc_configs : int;
  recoverable : Runner.result list;
  irrecoverable : Runner.result list;
}

(* Reduce: fold evaluated records back into per-topology data, in seq
   order.  The per-topology log lines and the experiments.* counters
   live here — and only here, so a split generate/evaluate/reduce run
   reports them exactly once, from the reduce process, with the same
   values the in-process [collect] reports (they depend only on header
   statistics fixed at generation time). *)
let reduce_stream ?(log = fun _ -> ()) ~header ~mrc results =
  Rtr_obs.Trace.with_ "stream.reduce" @@ fun () ->
  if Array.length results <> header.Stream.count then
    failwith
      (Printf.sprintf "reduce: %d results for a stream of %d records"
         (Array.length results) header.Stream.count);
  let offset = ref 0 in
  List.map
    (fun (stat : Stream.topo_stat) ->
      let preset =
        match Isp.find stat.Stream.as_name with
        | Some p -> p
        | None -> failwith ("unknown topology " ^ stat.Stream.as_name)
      in
      let topo = Isp.load preset in
      let rec_acc = ref [] and irr_acc = ref [] in
      for i = !offset to !offset + stat.Stream.records - 1 do
        List.iter
          (fun (r : Runner.result) ->
            match r.Runner.case.Scenario.kind with
            | Scenario.Recoverable -> rec_acc := r :: !rec_acc
            | Scenario.Irrecoverable -> irr_acc := r :: !irr_acc)
          results.(i).Stream.results
      done;
      offset := !offset + stat.Stream.records;
      log
        (Printf.sprintf "%s: %d recoverable + %d irrecoverable cases (%d areas)"
           stat.Stream.as_name stat.Stream.rec_cases stat.Stream.irr_cases
           stat.Stream.areas);
      Metrics.Counter.incr c_topologies;
      Metrics.Counter.add c_scenarios_generated stat.Stream.areas;
      Metrics.Histogram.observe h_case_throughput
        (float_of_int (stat.Stream.rec_cases + stat.Stream.irr_cases));
      let mrc_configs =
        match List.assoc_opt stat.Stream.as_name mrc with
        | Some n -> n
        | None ->
            (* No shard footer recorded this topology (e.g. every one
               of its records was already committed before a resume):
               k follows from MRC's deterministic isolation assignment,
               as [Pipeline.mrc_for] would find it. *)
            Rtr_baselines.Mrc.configs_needed ?k_start:header.Stream.mrc_k
              (Rtr_topo.Topology.graph topo)
      in
      {
        preset;
        topo;
        mrc_configs;
        recoverable = List.rev !rec_acc;
        irrecoverable = List.rev !irr_acc;
      })
    header.Stream.topos

let reduce_shards ?log ~header shards =
  (match shards with
  | [] -> failwith "reduce: no shards"
  | first :: _ ->
      let k = first.Shard_store.meta.Shard_store.shards in
      List.iter
        (fun (s : Shard_store.loaded) ->
          if s.Shard_store.meta.Shard_store.shards <> k then
            failwith "reduce: shards disagree on the shard count";
          if s.Shard_store.meta.Shard_store.count <> header.Stream.count then
            failwith "reduce: shard was evaluated against a different stream")
        shards;
      let seen = Array.make k false in
      List.iter
        (fun (s : Shard_store.loaded) ->
          let i = s.Shard_store.meta.Shard_store.shard in
          if i < 0 || i >= k then failwith "reduce: shard index out of range";
          if seen.(i) then
            failwith (Printf.sprintf "reduce: shard %d given twice" i);
          seen.(i) <- true)
        shards;
      Array.iteri
        (fun i present ->
          if not present then
            failwith (Printf.sprintf "reduce: shard %d/%d missing" i k))
        seen);
  let results = Array.make header.Stream.count None in
  List.iter
    (fun (s : Shard_store.loaded) ->
      List.iter
        (fun (r : Stream.result) ->
          if r.Stream.rseq < 0 || r.Stream.rseq >= header.Stream.count then
            failwith (Printf.sprintf "reduce: seq %d out of range" r.Stream.rseq);
          results.(r.Stream.rseq) <- Some r)
        s.Shard_store.results)
    shards;
  let results =
    Array.mapi
      (fun i -> function
        | Some r -> r
        | None -> failwith (Printf.sprintf "reduce: record %d missing" i))
      results
  in
  (* Footers record the MRC size per topology; first writer wins, but a
     disagreement means the shards came from different runs. *)
  let mrc =
    List.fold_left
      (fun acc (s : Shard_store.loaded) ->
        List.fold_left
          (fun acc (name, n) ->
            match List.assoc_opt name acc with
            | None -> (name, n) :: acc
            | Some n' when n' = n -> acc
            | Some n' ->
                failwith
                  (Printf.sprintf
                     "reduce: shards disagree on MRC for %s (%d vs %d)" name n'
                     n))
          acc s.Shard_store.mrc)
      [] shards
  in
  reduce_stream ?log ~header ~mrc results

let generate config =
  Pipeline.generate ~presets:config.presets
    ~rec_quota:config.recoverable_per_topo
    ~irr_quota:config.irrecoverable_per_topo ~seed:config.seed
    ~mrc_k:config.mrc_k ()

let collect ?(log = fun _ -> ()) config =
  let header, records = generate config in
  let results = Array.make header.Stream.count None in
  let remaining = ref records in
  let next () =
    match !remaining with
    | [] -> None
    | r :: tl ->
        remaining := tl;
        Some r
  in
  let mrc =
    Pipeline.evaluate ~jobs:config.jobs ~header ~next
      ~emit:(fun r -> results.(r.Stream.rseq) <- Some r)
      ()
  in
  reduce_stream ~log ~header ~mrc
    (Array.map (function Some r -> r | None -> assert false) results)

type series = { label : string; points : (float * float) list }

type figure = {
  id : string;
  title : string;
  x_label : string;
  y_label : string;
  series : series list;
}

type table = {
  id : string;
  title : string;
  header : string list;
  rows : string list list;
}

let pct x = Printf.sprintf "%.1f" (100.0 *. x)
let f2 x = Printf.sprintf "%.1f" x

(* ------------------------------------------------------------------ *)

let table2 config =
  {
    id = "table2";
    title = "Table II: summary of topologies used in simulation";
    header = [ "Topology"; "# Nodes"; "# Links" ];
    rows =
      List.map
        (fun (p : Isp.preset) ->
          [
            (p.Isp.as_name ^ if p.Isp.approx then " (approx)" else "");
            string_of_int p.Isp.nodes;
            string_of_int p.Isp.links;
          ])
        config.presets;
  }

(* ------------------------------------------------------------------ *)

let range lo hi step =
  let rec go acc x = if x > hi +. 1e-9 then List.rev acc else go (x :: acc) (x +. step) in
  go [] lo

let fig7 data =
  let series =
    List.map
      (fun d ->
        let durations =
          List.map
            (fun (r : Runner.result) ->
              Delay.ms (Delay.of_hops r.Runner.rtr_p1_hops))
            (d.recoverable @ d.irrecoverable)
        in
        let cdf = Cdf.of_values durations in
        let xs = range 0.0 (Float.max 120.0 (Cdf.maximum cdf)) 10.0 in
        { label = d.preset.Isp.as_name; points = Cdf.sample cdf ~xs })
      data
  in
  {
    id = "fig7";
    title = "Fig. 7: CDF of the duration of the first phase";
    x_label = "duration of the first phase (ms)";
    y_label = "cumulative distribution";
    series;
  }

(* ------------------------------------------------------------------ *)

(* Optimal means the delivered path costs exactly the true shortest
   path: integer equality on the recorded costs, not a float stretch
   compared with a tolerance. *)
let optimal (r : Runner.result) ~delivered cost =
  delivered
  &&
  match r.Runner.case.Scenario.shortest_after with
  | Some best -> cost = Some best
  | None -> false

let rtr_optimal r = optimal r ~delivered:r.Runner.rtr_recovered r.Runner.rtr_cost
let fcp_optimal r = optimal r ~delivered:r.Runner.fcp_delivered r.Runner.fcp_cost
let mrc_optimal r = optimal r ~delivered:r.Runner.mrc_delivered r.Runner.mrc_cost

let count f xs = List.length (List.filter f xs)

let max_stretch get xs =
  List.filter_map get xs |> function [] -> 1.0 | l -> Stats.maximum l

let table3 data =
  let row_of name (cases : Runner.result list) =
    let n = List.length cases in
    let rr f = pct (Stats.ratio (count f cases) n) in
    [
      name;
      rr (fun r -> r.Runner.rtr_recovered);
      rr (fun r -> r.Runner.fcp_delivered);
      rr (fun r -> r.Runner.mrc_delivered);
      rr rtr_optimal;
      rr fcp_optimal;
      rr mrc_optimal;
      f2 (max_stretch (fun r -> r.Runner.rtr_stretch) cases);
      f2 (max_stretch (fun r -> r.Runner.fcp_stretch) cases);
      f2 (max_stretch (fun r -> r.Runner.mrc_stretch) cases);
      string_of_int
        (Stats.max_int_list (List.map Runner.rtr_sp_calculations cases));
      string_of_int
        (Stats.max_int_list (List.map (fun r -> r.Runner.fcp_calcs) cases));
    ]
  in
  let rows = List.map (fun d -> row_of d.preset.Isp.as_name d.recoverable) data in
  let overall = row_of "Overall" (List.concat_map (fun d -> d.recoverable) data) in
  {
    id = "table3";
    title =
      "Table III: performance of RTR, FCP, and MRC in recoverable test cases";
    header =
      [
        "Topology";
        "Rec% RTR";
        "Rec% FCP";
        "Rec% MRC";
        "Opt% RTR";
        "Opt% FCP";
        "Opt% MRC";
        "MaxStretch RTR";
        "MaxStretch FCP";
        "MaxStretch MRC";
        "MaxCalc RTR";
        "MaxCalc FCP";
      ];
    rows = rows @ [ overall ];
  }

(* ------------------------------------------------------------------ *)

let fig8 data =
  let xs = range 1.0 5.0 0.25 in
  let rtr_stretches =
    List.concat_map
      (fun d -> List.filter_map (fun r -> r.Runner.rtr_stretch) d.recoverable)
      data
  in
  let rtr_series =
    match rtr_stretches with
    | [] -> []
    | l -> [ { label = "RTR"; points = Cdf.sample (Cdf.of_values l) ~xs } ]
  in
  let fcp_series =
    List.filter_map
      (fun d ->
        match List.filter_map (fun r -> r.Runner.fcp_stretch) d.recoverable with
        | [] -> None
        | l ->
            Some
              {
                label = "FCP " ^ d.preset.Isp.as_name;
                points = Cdf.sample (Cdf.of_values l) ~xs;
              })
      data
  in
  {
    id = "fig8";
    title = "Fig. 8: CDF of stretch of recovery paths (recovered cases)";
    x_label = "stretch";
    y_label = "cumulative distribution";
    series = rtr_series @ fcp_series;
  }

(* ------------------------------------------------------------------ *)

(* Figs. 9 and 12: per-case shortest-path calculations, RTR pooled
   over every topology and FCP per topology, on one case list. *)
let calc_cdf ~id ~title ~xs cases_of data =
  let rtr =
    (* measured, not asserted: ≤ 1 calculation per case (0 when the
       session's per-destination cache already held the path) *)
    match
      List.concat_map
        (fun d -> List.map Runner.rtr_sp_calculations (cases_of d))
        data
    with
    | [] -> { label = "RTR"; points = List.map (fun x -> (x, 1.0)) xs }
    | calcs -> { label = "RTR"; points = Cdf.sample (Cdf.of_ints calcs) ~xs }
  in
  let fcp =
    List.map
      (fun d ->
        let cdf =
          Cdf.of_ints (List.map (fun r -> r.Runner.fcp_calcs) (cases_of d))
        in
        { label = "FCP " ^ d.preset.Isp.as_name; points = Cdf.sample cdf ~xs })
      data
  in
  {
    id;
    title;
    x_label = "number of shortest path calculations";
    y_label = "cumulative distribution";
    series = rtr :: fcp;
  }

let fig9 =
  calc_cdf ~id:"fig9"
    ~title:"Fig. 9: CDF of computational overhead in recoverable test cases"
    ~xs:(range 1.0 11.0 1.0)
    (fun d -> d.recoverable)

(* ------------------------------------------------------------------ *)

(* The recovery-header bytes carried by the packet in flight at time t
   for one case: while the phase-1 (or FCP journey) packet is between
   hops, the header recorded for that hop; afterwards the steady state
   (source-route header for RTR; journey average for FCP, since a
   pipeline of identically-behaving packets fills the path). *)
let bytes_at_time ~per_hop ~steady t =
  let hop = int_of_float (t /. Delay.per_hop_s) in
  let n = Array.length per_hop in
  if hop < n then per_hop.(hop) else steady

let fig10 data =
  let times = range 0.0 1.0 0.01 in
  let series_of d =
    let rtr_cases =
      List.map
        (fun (r : Runner.result) ->
          ( Array.of_list (List.map float_of_int r.Runner.rtr_p1_bytes),
            float_of_int r.Runner.rtr_route_bytes ))
        d.recoverable
    in
    let fcp_cases =
      List.map
        (fun (r : Runner.result) ->
          let per_hop = Array.of_list (List.map float_of_int r.Runner.fcp_hop_bytes) in
          let steady =
            if Array.length per_hop = 0 then 0.0
            else Array.fold_left ( +. ) 0.0 per_hop /. float_of_int (Array.length per_hop)
          in
          (per_hop, steady))
        d.recoverable
    in
    let avg cases t =
      match cases with
      | [] -> 0.0
      | _ ->
          List.fold_left
            (fun acc (per_hop, steady) -> acc +. bytes_at_time ~per_hop ~steady t)
            0.0 cases
          /. float_of_int (List.length cases)
    in
    [
      {
        label = "RTR " ^ d.preset.Isp.as_name;
        points = List.map (fun t -> (t, avg rtr_cases t)) times;
      };
      {
        label = "FCP " ^ d.preset.Isp.as_name;
        points = List.map (fun t -> (t, avg fcp_cases t)) times;
      };
    ]
  in
  {
    id = "fig10";
    title =
      "Fig. 10: average transmission overhead (header bytes per in-flight \
       packet) over the first second, recoverable cases";
    x_label = "time (s)";
    y_label = "bytes";
    series = List.concat_map series_of data;
  }

(* ------------------------------------------------------------------ *)

let fig11 ?(log = fun _ -> ()) ?(areas_per_radius = 200) ?radii config =
  let radii =
    match radii with Some r -> r | None -> range 20.0 300.0 20.0
  in
  let series =
    List.map
      (fun (preset : Isp.preset) ->
        Trace.with_ "experiments.fig11" ~attrs:[ ("as", preset.Isp.as_name) ]
        @@ fun () ->
        let topo = Isp.load preset in
        let table = Topo_cache.table (Topo_cache.shared topo) in
        let count_failed_paths = Scenario.count_failed_paths topo table in
        let rng = Rtr_util.Rng.make (config.seed + preset.Isp.seed + 11) in
        let points =
          List.map
            (fun radius ->
              let rec_total = ref 0 and irr_total = ref 0 in
              for _ = 1 to areas_per_radius do
                let area =
                  Rtr_failure.Area.random_disc rng ~r_min:radius ~r_max:radius
                    ()
                in
                let damage = Rtr_failure.Damage.apply topo area in
                let r, i = count_failed_paths damage in
                rec_total := !rec_total + r;
                irr_total := !irr_total + i
              done;
              ( radius,
                100.0 *. Stats.ratio !irr_total (!rec_total + !irr_total) ))
            radii
        in
        log (Printf.sprintf "fig11: %s done" preset.Isp.as_name);
        { label = preset.Isp.as_name; points })
      config.presets
  in
  {
    id = "fig11";
    title =
      "Fig. 11: percentage of failed routing paths that are irrecoverable vs \
       failure radius";
    x_label = "radius";
    y_label = "percentage (%)";
    series;
  }

(* ------------------------------------------------------------------ *)

let fig12 =
  calc_cdf ~id:"fig12"
    ~title:"Fig. 12: CDF of wasted computation in irrecoverable test cases"
    ~xs:(range 1.0 45.0 2.0)
    (fun d -> d.irrecoverable)

(* ------------------------------------------------------------------ *)

let fig13 data =
  let xs = range 0.0 60000.0 2000.0 in
  let series_of d =
    [
      {
        label = "RTR " ^ d.preset.Isp.as_name;
        points =
          Cdf.sample
            (Cdf.of_ints (List.map (fun r -> r.Runner.rtr_wasted_tx) d.irrecoverable))
            ~xs;
      };
      {
        label = "FCP " ^ d.preset.Isp.as_name;
        points =
          Cdf.sample
            (Cdf.of_ints (List.map (fun r -> r.Runner.fcp_wasted_tx) d.irrecoverable))
            ~xs;
      };
    ]
  in
  {
    id = "fig13";
    title = "Fig. 13: CDF of wasted transmission in irrecoverable test cases";
    x_label = "wasted transmission (byte-hops)";
    y_label = "cumulative distribution";
    series = List.concat_map series_of data;
  }

(* ------------------------------------------------------------------ *)

let table4 data =
  (* Computation, then transmission: the (RTR, FCP) per-case values of
     one case list. *)
  let measures irr =
    [
      ( List.map Runner.rtr_sp_calculations irr,
        List.map (fun r -> r.Runner.fcp_calcs) irr );
      ( List.map (fun r -> r.Runner.rtr_wasted_tx) irr,
        List.map (fun r -> r.Runner.fcp_wasted_tx) irr );
    ]
  in
  let row name measured =
    name
    :: List.concat_map
         (fun (rtr, fcp) ->
           [
             f2 (Stats.mean_int rtr);
             f2 (Stats.mean_int fcp);
             string_of_int (Stats.max_int_list rtr);
             string_of_int (Stats.max_int_list fcp);
           ])
         measured
  in
  let overall = measures (List.concat_map (fun d -> d.irrecoverable) data) in
  let savings =
    let save (rtr, fcp) what =
      let a = Stats.mean_int rtr and b = Stats.mean_int fcp in
      let pct = if b > 0.0 then 100.0 *. (1.0 -. (a /. b)) else 0.0 in
      [ Printf.sprintf "%.1f%% %s" pct what; ""; ""; "" ]
    in
    "RTR saves"
    :: List.concat
         (List.map2 save overall [ "computation"; "transmission" ])
  in
  {
    id = "table4";
    title =
      "Table IV: wasted computation and transmission in irrecoverable test \
       cases";
    header =
      [
        "Topology";
        "AvgCalc RTR";
        "AvgCalc FCP";
        "MaxCalc RTR";
        "MaxCalc FCP";
        "AvgTx RTR";
        "AvgTx FCP";
        "MaxTx RTR";
        "MaxTx FCP";
      ];
    rows =
      List.map
        (fun d -> row d.preset.Isp.as_name (measures d.irrecoverable))
        data
      @ [ row "Overall" overall; savings ];
  }

(* ------------------------------------------------------------------ *)

(* The ablations and extensions below sample alike: draw scenarios
   from one RNG until [cases] recoverable cases have gone to [f], in
   generation order. *)
let iter_recoverable ~cases ~seed topo f =
  let table = Topo_cache.table (Topo_cache.shared topo) in
  let rng = Rtr_util.Rng.make seed in
  let n_done = ref 0 in
  while !n_done < cases do
    let scenario = Scenario.generate topo table rng () in
    List.iter
      (fun (c : Scenario.case) ->
        if c.Scenario.kind = Scenario.Recoverable && !n_done < cases then begin
          incr n_done;
          f scenario c
        end)
      scenario.Scenario.cases
  done

(* Does phase 2's route to [dst] arrive over the damaged network? *)
let delivered g damage p2 ~dst =
  match Rtr_core.Phase2.recovery_path p2 ~dst with
  | None -> false
  | Some path -> (
      match Rtr_routing.Source_route.follow g damage path with
      | Rtr_routing.Source_route.Delivered -> true
      | Rtr_routing.Source_route.Dropped _ -> false)

(* The Figs. 4/5 ablation: recoverable cases replayed with the
   cross-link constraints off.  Recovery is re-derived from the raw
   phases, since the engine proper has no reason to expose a broken
   mode. *)
let ablation_constraints ?(cases = 500) config =
  let row (preset : Isp.preset) =
    let topo = Isp.load preset in
    let g = Rtr_topo.Topology.graph topo in
    let ok_on = ref 0 and ok_off = ref 0 in
    let links_on = ref 0 and links_off = ref 0 in
    let hops_on = ref 0 and hops_off = ref 0 in
    let clean_off = ref 0 in
    iter_recoverable ~cases ~seed:(config.seed + preset.Isp.seed + 23) topo
      (fun scenario c ->
        let damage = scenario.Scenario.damage in
        let attempt ~constraints =
          let p1 =
            Rtr_core.Phase1.run topo damage ~constraints
              ~initiator:c.Scenario.initiator ~trigger:c.Scenario.trigger ()
          in
          let p2 =
            Rtr_core.Phase2.create topo damage ~initiator:c.Scenario.initiator
              ~removed:p1.Rtr_core.Phase1.failed_links
          in
          (delivered g damage p2 ~dst:c.Scenario.dst, p1)
        in
        let on, p1_on = attempt ~constraints:true in
        let off, p1_off = attempt ~constraints:false in
        if on then incr ok_on;
        if off then incr ok_off;
        links_on := !links_on + List.length p1_on.Rtr_core.Phase1.failed_links;
        links_off := !links_off + List.length p1_off.Rtr_core.Phase1.failed_links;
        hops_on := !hops_on + p1_on.Rtr_core.Phase1.hops;
        hops_off := !hops_off + p1_off.Rtr_core.Phase1.hops;
        match p1_off.Rtr_core.Phase1.status with
        | Rtr_core.Phase1.Completed | Rtr_core.Phase1.No_live_neighbor ->
            incr clean_off
        | Rtr_core.Phase1.Hop_limit | Rtr_core.Phase1.Stuck _ -> ());
    let avg x = float_of_int x /. float_of_int cases in
    [
      preset.Isp.as_name;
      pct (Stats.ratio !ok_on cases);
      pct (Stats.ratio !ok_off cases);
      f2 (avg !links_on);
      f2 (avg !links_off);
      f2 (avg !hops_on);
      f2 (avg !hops_off);
      pct (Stats.ratio !clean_off cases);
    ]
  in
  {
    id = "ablation_constraints";
    title =
      "Ablation (not in the paper): Constraints 1 & 2 on vs off, recoverable \
       cases";
    header =
      [
        "Topology";
        "Rec% on";
        "Rec% off";
        "AvgE1 on";
        "AvgE1 off";
        "AvgHops on";
        "AvgHops off";
        "CleanTerm% off";
      ];
    rows = List.map row config.presets;
  }

(* ------------------------------------------------------------------ *)

(* The bidirectional-walk extension, measured: delay to first return
   and recovery from the merged two-walk view. *)
let extension_bidir ?(cases = 500) config =
  let row (preset : Isp.preset) =
    let topo = Isp.load preset in
    let g = Rtr_topo.Topology.graph topo in
    let single_hops = ref 0 and first_hops = ref 0 and both_hops = ref 0 in
    let single_links = ref 0 and merged_links = ref 0 in
    let ok_single = ref 0 and ok_merged = ref 0 in
    iter_recoverable ~cases ~seed:(config.seed + preset.Isp.seed + 31) topo
      (fun scenario c ->
        let damage = scenario.Scenario.damage in
        let bid =
          Rtr_core.Bidir.run topo damage ~initiator:c.Scenario.initiator
            ~trigger:c.Scenario.trigger ()
        in
        let p2_single =
          Rtr_core.Phase2.create topo damage ~initiator:c.Scenario.initiator
            ~removed:bid.Rtr_core.Bidir.right.Rtr_core.Phase1.failed_links
        in
        let p2_merged = Rtr_core.Bidir.phase2_of_merged topo damage bid in
        if delivered g damage p2_single ~dst:c.Scenario.dst then incr ok_single;
        if delivered g damage p2_merged ~dst:c.Scenario.dst then incr ok_merged;
        single_hops := !single_hops + bid.Rtr_core.Bidir.right.Rtr_core.Phase1.hops;
        first_hops := !first_hops + bid.Rtr_core.Bidir.first_return_hops;
        both_hops := !both_hops + bid.Rtr_core.Bidir.both_return_hops;
        single_links :=
          !single_links
          + List.length bid.Rtr_core.Bidir.right.Rtr_core.Phase1.failed_links;
        merged_links :=
          !merged_links + List.length bid.Rtr_core.Bidir.merged_failed_links);
    let avg x = float_of_int x /. float_of_int cases in
    let ms hops = Delay.ms (Delay.of_hops (int_of_float (Float.round (avg hops)))) in
    [
      preset.Isp.as_name;
      f2 (ms !single_hops);
      f2 (ms !first_hops);
      f2 (ms !both_hops);
      f2 (avg !single_links);
      f2 (avg !merged_links);
      pct (Stats.ratio !ok_single cases);
      pct (Stats.ratio !ok_merged cases);
    ]
  in
  {
    id = "extension_bidir";
    title =
      "Extension (not in the paper): bidirectional phase-1 walks, recoverable \
       cases";
    header =
      [
        "Topology";
        "P1 ms single";
        "P1 ms first-of-2";
        "P1 ms both";
        "AvgE1 single";
        "AvgE1 merged";
        "Rec% single";
        "Rec% merged";
      ];
    rows = List.map row config.presets;
  }

(* ------------------------------------------------------------------ *)

(* MRC recovery rate vs configuration count: fairness check on the
   baseline. *)
let ablation_mrc_k ?(cases = 500) ?(ks = [ 4; 6; 8; 12; 16 ]) config =
  let module Mrc = Rtr_baselines.Mrc in
  let row (preset : Isp.preset) =
    let topo = Isp.load preset in
    let g = Rtr_topo.Topology.graph topo in
    let mrcs = List.map (fun k -> (k, Mrc.build g ~k)) ks in
    let ok = Hashtbl.create 8 in
    List.iter (fun k -> Hashtbl.replace ok k 0) ks;
    iter_recoverable ~cases ~seed:(config.seed + preset.Isp.seed + 41) topo
      (fun scenario c ->
        List.iter
          (fun (k, mrc) ->
            match mrc with
            | None -> ()
            | Some mrc -> (
                match
                  Mrc.recover mrc scenario.Scenario.damage
                    ~initiator:c.Scenario.initiator
                    ~trigger:c.Scenario.trigger ~dst:c.Scenario.dst
                with
                | Mrc.Delivered _ -> Hashtbl.replace ok k (Hashtbl.find ok k + 1)
                | Mrc.Dropped _ -> ()))
          mrcs);
    preset.Isp.as_name
    :: List.map
         (fun (k, mrc) ->
           match mrc with
           | None -> "infeasible"
           | Some _ -> pct (Stats.ratio (Hashtbl.find ok k) cases))
         mrcs
  in
  {
    id = "ablation_mrc_k";
    title =
      "Ablation (not in the paper): MRC recovery rate vs configuration count \
       k, recoverable cases";
    header = "Topology" :: List.map (fun k -> Printf.sprintf "k=%d" k) ks;
    rows = List.map row config.presets;
  }

(* ------------------------------------------------------------------ *)

(* Topology-instance sensitivity: the error bars of the synthetic
   substitution. *)
let instance_variance ?(cases = 400) ?(instances = 5) config =
  let rate_on topo seed =
    let ok = ref 0 in
    iter_recoverable ~cases ~seed topo (fun scenario c ->
        let session =
          Rtr_core.Rtr.start topo scenario.Scenario.damage
            ~initiator:c.Scenario.initiator ~trigger:c.Scenario.trigger ()
        in
        match Rtr_core.Rtr.recover session ~dst:c.Scenario.dst with
        | Rtr_core.Rtr.Recovered _ -> incr ok
        | Rtr_core.Rtr.Unreachable_in_view | Rtr_core.Rtr.False_path _ -> ());
    100.0 *. Stats.ratio !ok cases
  in
  let row (preset : Isp.preset) =
    let rates =
      List.init instances (fun i ->
          let rng = Rtr_util.Rng.make (preset.Isp.seed + (1000 * (i + 1))) in
          let topo =
            Rtr_topo.Generator.generate rng
              ~name:(Printf.sprintf "%s#%d" preset.Isp.as_name i)
              ~n:preset.Isp.nodes ~m:preset.Isp.links ~style:preset.Isp.style
              ()
          in
          rate_on topo (config.seed + i))
    in
    [
      preset.Isp.as_name;
      f2 (Stats.mean rates);
      f2 (Stats.minimum rates);
      f2 (Stats.maximum rates);
      f2 (Stats.maximum rates -. Stats.minimum rates);
    ]
  in
  {
    id = "instance_variance";
    title =
      Printf.sprintf
        "Instance sensitivity (not in the paper): RTR recovery rate across %d \
         regenerated instances per AS"
        instances;
    header = [ "Topology"; "Mean%"; "Min%"; "Max%"; "Spread" ];
    rows = List.map row config.presets;
  }

(* ------------------------------------------------------------------ *)

(* The flow-level congestion sweep (not in the paper): what does each
   recovery scheme do to link load while the IGP converges?  One
   large-scale disc failure per topology, a synthetic demand matrix,
   and every scheme evaluated on the identical flows, so the
   stretch-vs-congestion trade-off lands in one table.  Evaluation
   shards over a fixed chunk grid and merges integer accumulators, so
   the output is byte-identical for every [config.jobs]. *)

module Flowsim = Rtr_des.Flowsim

let congestion_schemes =
  [
    Flowsim.No_recovery;
    Flowsim.Rtr_scheme;
    Flowsim.Fcp_scheme;
    Flowsim.Mrc_scheme;
    Flowsim.Randroute_scheme;
  ]

(* Fixed shard grid: the chunk boundaries depend only on the flow
   count, never on the worker count, so merged results cannot vary
   with --jobs. *)
let flow_chunks = 64

let congestion_eval ~jobs ctx flows =
  let n = Array.length flows in
  let chunks = min flow_chunks (max 1 n) in
  let bounds =
    Array.init chunks (fun i -> (i * n / chunks, (i + 1) * n / chunks))
  in
  let accs =
    Parallel.map ~jobs (fun (lo, hi) -> Flowsim.eval_slice ctx flows ~lo ~hi) bounds
  in
  let merged =
    match Array.to_list accs with
    | first :: rest -> List.fold_left Flowsim.merge first rest
    | [] -> assert false
  in
  Flowsim.finish ctx merged

let congestion_data ?(log = fun _ -> ()) ?(flows_per_topo = 125_000)
    ?(schemes = congestion_schemes) config =
  Trace.with_ "experiments.congestion" @@ fun () ->
  List.map
    (fun (preset : Isp.preset) ->
      let topo = Isp.load preset in
      let table = Topo_cache.table (Topo_cache.shared topo) in
      let rng = Rtr_util.Rng.make (config.seed + preset.Isp.seed + 47) in
      (* Random discs can miss the embedding entirely; keep drawing
         from the same sequential stream until the failure is real, so
         every topology's row reflects an actual large-scale failure. *)
      let rec draw_damage tries =
        let scenario = Scenario.generate topo table rng () in
        let d = scenario.Scenario.damage in
        if Rtr_failure.Damage.n_failed_links d > 0 || tries > 64 then d
        else draw_damage (tries + 1)
      in
      let damage = draw_damage 0 in
      let flows =
        Flowsim.demand topo ~n:flows_per_topo
          ~seed:(config.seed + preset.Isp.seed + 53)
      in
      let mrc =
        if List.mem Flowsim.Mrc_scheme schemes then
          Some
            (Pipeline.mrc_for ~mrc_k:config.mrc_k
               (Rtr_topo.Topology.graph topo))
        else None
      in
      let per_scheme =
        List.map
          (fun scheme ->
            let fcfg =
              {
                Flowsim.default_config with
                Flowsim.scheme;
                seed = config.seed + preset.Isp.seed;
              }
            in
            let ctx = Flowsim.context topo damage ?mrc fcfg in
            let stats = congestion_eval ~jobs:config.jobs ctx flows in
            log
              (Printf.sprintf "%s/%s: %d flows, delivered %.3f, max load %d"
                 preset.Isp.as_name (Flowsim.scheme_name scheme)
                 stats.Flowsim.flows stats.Flowsim.delivered_frac
                 stats.Flowsim.rec_max_load);
            (scheme, stats))
          schemes
      in
      (* A damage no scheme recovers a single flow from (every draw
         missed the links, or no flow it breaks has a surviving path)
         leaves every row equal to none's: say so rather than leave it
         to the reader. *)
      if List.for_all (fun (_, s) -> s.Flowsim.recovered = 0) per_scheme
      then begin
        Metrics.Counter.incr c_noop_damages;
        let broken =
          List.fold_left (fun m (_, s) -> max m s.Flowsim.broken) 0 per_scheme
        in
        log
          (Printf.sprintf "%s: no-op damage (%s); every scheme equals none"
             preset.Isp.as_name
             (if Rtr_failure.Damage.n_failed_links damage = 0 then
                "no drawn disc cut a link"
              else
                Printf.sprintf "%d broken flow-eras, none recovered" broken))
      end;
      (preset, per_scheme))
    config.presets

let congestion_table data =
  let row (preset : Isp.preset) (scheme, (s : Flowsim.stats)) =
    let loadx =
      if s.Flowsim.base_max_load = 0 then 0.0
      else
        float_of_int s.Flowsim.rec_max_load
        /. float_of_int s.Flowsim.base_max_load
    in
    [
      preset.Isp.as_name;
      Flowsim.scheme_name scheme;
      pct s.Flowsim.delivered_frac;
      (if s.Flowsim.broken = 0 then "-"
       else pct (Stats.ratio s.Flowsim.recovered s.Flowsim.broken));
      Printf.sprintf "%.2f" s.Flowsim.stretch_agg;
      Printf.sprintf "%.2f" s.Flowsim.stretch_max;
      Printf.sprintf "%.2f" loadx;
      string_of_int s.Flowsim.overloaded_links;
    ]
  in
  {
    id = "congestion";
    title =
      "Congestion under convergence (not in the paper): flow-level delivery, \
       stretch and recovery-window link load per scheme";
    header =
      [
        "Topology";
        "Scheme";
        "Del%";
        "Rec%";
        "Stretch";
        "StrMax";
        "Loadx";
        "Ovl";
      ];
    rows =
      List.concat_map
        (fun (preset, per_scheme) -> List.map (row preset) per_scheme)
        data;
  }

let congestion_figure data =
  let series =
    match data with
    | [] -> []
    | (_, per_scheme) :: _ ->
        List.filter_map
          (fun (scheme, (s : Flowsim.stats)) ->
            if scheme = Flowsim.No_recovery then None
            else
              let cdf =
                Cdf.of_ints (Array.to_list s.Flowsim.rec_link_loads)
              in
              Some { label = Flowsim.scheme_name scheme; points = Cdf.steps cdf })
          per_scheme
  in
  {
    id = "load_cdf";
    title =
      "CDF of recovery-window link load (first topology), per recovery scheme";
    x_label = "link load [pps]";
    y_label = "fraction of links";
    series;
  }
