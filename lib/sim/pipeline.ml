module Isp = Rtr_topo.Isp
module Mrc = Rtr_baselines.Mrc
module Trace = Rtr_obs.Trace
module Metrics = Rtr_obs.Metrics

let c_results = Metrics.counter "stream.results"

let mrc_for ~mrc_k g = Mrc.build_auto ?k_start:mrc_k g

let generate ~presets ~rec_quota ~irr_quota ~seed ~mrc_k () =
  Trace.with_ "stream.generate" @@ fun () ->
  let records = ref [] in
  let seq = ref 0 in
  let topos =
    List.mapi
      (fun ti (preset : Isp.preset) ->
        Trace.with_ "experiments.topology"
          ~attrs:[ ("as", preset.Isp.as_name) ]
        @@ fun () ->
        let topo = Isp.load preset in
        let table = Topo_cache.table (Topo_cache.shared topo) in
        let rng = Rtr_util.Rng.make (seed + preset.Isp.seed) in
        (* Generation stays on the one sequential RNG, so the record
           stream is identical at any [jobs] or shard count — evaluation
           never draws from it. *)
        let n_rec = ref 0 and n_irr = ref 0 in
        let scenarios = ref 0 and n_records = ref 0 in
        while
          (!n_rec < rec_quota || !n_irr < irr_quota) && !scenarios < 100_000
        do
          incr scenarios;
          let scenario = Scenario.generate topo table rng () in
          let wanted (c : Scenario.case) =
            match c.Scenario.kind with
            | Scenario.Recoverable -> !n_rec < rec_quota
            | Scenario.Irrecoverable -> !n_irr < irr_quota
          in
          (* Quota bookkeeping must happen before evaluating, so count
             the kept cases per kind as we filter. *)
          let kept =
            List.filter
              (fun c ->
                if wanted c then begin
                  (match c.Scenario.kind with
                  | Scenario.Recoverable -> incr n_rec
                  | Scenario.Irrecoverable -> incr n_irr);
                  true
                end
                else false)
              scenario.Scenario.cases
          in
          if kept <> [] then begin
            records :=
              Stream.of_scenario ~seq:!seq ~topo:ti
                { scenario with Scenario.cases = kept }
              :: !records;
            incr seq;
            incr n_records
          end
        done;
        {
          Stream.as_name = preset.Isp.as_name;
          areas = !scenarios;
          rec_cases = !n_rec;
          irr_cases = !n_irr;
          records = !n_records;
        })
      presets
  in
  ( {
      Stream.seed;
      mrc_k;
      rec_quota;
      irr_quota;
      topos;
      count = !seq;
    },
    List.rev !records )

type ctx = {
  topo : Rtr_topo.Topology.t;
  table : Rtr_routing.Route_table.t;
  mrc : Mrc.t;
}

let evaluate ~jobs ?capacity ~header ~next ~emit () =
  Trace.with_ "stream.evaluate" @@ fun () ->
  let topos = Array.of_list header.Stream.topos in
  let ctxs = Array.make (max 1 (Array.length topos)) None in
  (* Contexts are created by the coordinator (inside the producer, i.e.
     before the record is submitted); the pool's queue mutex publishes
     them to the workers. *)
  let ensure ti =
    if ti < 0 || ti >= Array.length topos then
      failwith (Printf.sprintf "record references unknown topology %d" ti);
    match ctxs.(ti) with
    | Some _ -> ()
    | None ->
        let stat = topos.(ti) in
        let preset =
          match Isp.find stat.Stream.as_name with
          | Some p -> p
          | None -> failwith ("unknown topology " ^ stat.Stream.as_name)
        in
        let topo = Isp.load preset in
        let table = Topo_cache.table (Topo_cache.shared topo) in
        let mrc =
          mrc_for ~mrc_k:header.Stream.mrc_k (Rtr_topo.Topology.graph topo)
        in
        ctxs.(ti) <- Some { topo; table; mrc }
  in
  let producer () =
    match next () with
    | None -> None
    | Some (r : Stream.scenario) ->
        ensure r.Stream.topo;
        Some r
  in
  let f (r : Stream.scenario) =
    let ctx = Option.get ctxs.(r.Stream.topo) in
    let scenario = Stream.to_scenario ~topo:ctx.topo ~table:ctx.table r in
    {
      Stream.rseq = r.Stream.seq;
      rtopo = r.Stream.topo;
      results = Runner.run_scenario ~mrc:ctx.mrc scenario;
    }
  in
  let consumer _seq res =
    Metrics.Counter.incr c_results;
    emit res
  in
  let _consumed = Parallel.stream ~jobs ?capacity f ~producer ~consumer () in
  Array.to_list ctxs
  |> List.concat_map (function
       | None -> []
       | Some ctx ->
           [
             ( Rtr_topo.Topology.name ctx.topo,
               Mrc.n_configs ctx.mrc );
           ])
