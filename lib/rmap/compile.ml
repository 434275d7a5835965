module Graph = Rtr_graph.Graph
module Damage = Rtr_failure.Damage
module Scenario = Rtr_sim.Scenario
module Rtr = Rtr_core.Rtr
module Metrics = Rtr_obs.Metrics
module Trace = Rtr_obs.Trace
module Topo_cache = Rtr_routing.Topo_cache
module Json = Rtr_obs.Json

let c_scenarios = Metrics.counter "rmap.scenarios"
let c_cases = Metrics.counter "rmap.cases"
let g_bytes = Metrics.gauge "rmap.artifact_bytes"
let g_cases_per_sec = Metrics.gauge "rmap.precompute_cases_per_sec"

let eval_case s (c : Scenario.case) =
  let dst = c.Scenario.dst in
  let kind, path =
    match Rtr.recover s ~dst with
    | Rtr.Recovered path -> (Store.Recovered, Some path)
    | Rtr.Unreachable_in_view -> (Store.Unreachable, None)
    | Rtr.False_path { path; _ } -> (Store.False_path, Some path)
  in
  let cost, path =
    match path with
    | None -> (-1, [||])
    | Some p ->
        (* The emitted route is a recovery-SPT path, so its view cost is
           the session's cached distance label — a phase2.cache_hit, not
           a recomputation. *)
        let cost =
          match Rtr.recovery_distance s ~dst with
          | Some d -> d
          | None -> assert false (* a path implies a cached label *)
        in
        (cost, Array.of_list (Rtr_graph.Path.nodes p))
  in
  {
    Store.initiator = c.Scenario.initiator;
    trigger = c.Scenario.trigger;
    dst;
    kind;
    cost;
    true_cost = Option.value c.Scenario.shortest_after ~default:(-1);
    path;
  }

let eval_links topo table links =
  let damage =
    Damage.of_failed (Rtr_topo.Topology.graph topo) ~nodes:[] ~links
  in
  let cases = Array.of_list (Scenario.cases_of_damage topo table damage) in
  let results = Array.make (Array.length cases) None in
  (* One RTR session per (initiator, trigger), grouped as in the
     runner: the session's tree serves all its destinations. *)
  List.iter
    (fun ((initiator, trigger), idxs) ->
      let s = Rtr.start topo damage ~initiator ~trigger () in
      List.iter (fun i -> results.(i) <- Some (eval_case s cases.(i))) idxs)
    (Rtr_sim.Runner.group_by_session cases (fun (c : Scenario.case) ->
         (c.Scenario.initiator, c.Scenario.trigger)));
  Array.map Option.get results

type result = {
  artifact : string;
  manifest : Rtr_obs.Json.t;
  stats : Enum.stats;
  n_scenarios : int;
  n_cases : int;
  wall_s : float;
}

let fnv64_hex s =
  let h = ref (-3750763034362895579L) (* 0xcbf29ce484222325 *) in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 1099511628211L)
    s;
  Printf.sprintf "%016Lx" !h

let manifest_json ~topo ~config ~(stats : Enum.stats) ~n_scenarios ~n_cases
    ~artifact ~jobs ~wall_s =
  let g = Rtr_topo.Topology.graph topo in
  Json.Obj
    [
      ("format", Json.String "rmap-manifest/1");
      ("topology", Json.String (Rtr_topo.Topology.name topo));
      ("n_nodes", Json.Int (Graph.n_nodes g));
      ("n_links", Json.Int (Graph.n_links g));
      ("n_scenarios", Json.Int n_scenarios);
      ("n_cases", Json.Int n_cases);
      ("artifact_bytes", Json.Int (String.length artifact));
      ("artifact_fnv64", Json.String (fnv64_hex artifact));
      ( "enum",
        Json.Obj
          [
            ("explicit", Json.Int (List.length config.Enum.explicit));
            ("singles", Json.Bool config.Enum.singles);
            ("grid_cols", Json.Int config.Enum.grid_cols);
            ("grid_rows", Json.Int config.Enum.grid_rows);
            ( "radii",
              Json.Arr (List.map (fun r -> Json.Float r) config.Enum.radii) );
            ("combo_k", Json.Int config.Enum.combo_k);
            ("combo_budget", Json.Int config.Enum.combo_budget);
          ] );
      ( "stats",
        Json.Obj
          [
            ("kept", Json.Int stats.Enum.kept);
            ("deduped", Json.Int stats.Enum.deduped);
            ("dropped", Json.Int stats.Enum.dropped);
            ("empty", Json.Int stats.Enum.empty);
          ] );
      ("jobs", Json.Int jobs);
      ("wall_s", Json.Float wall_s);
    ]

let run ?(log = fun _ -> ()) ?(jobs = 1) topo config =
  Trace.with_ "rmap.compile"
    ~attrs:[ ("topo", Rtr_topo.Topology.name topo) ]
  @@ fun () ->
  let t0 = Trace.now () in
  let g = Rtr_topo.Topology.graph topo in
  let scenarios, stats = Enum.enumerate topo config in
  log
    (Printf.sprintf
       "rmap: %d scenarios enumerated (%d deduped, %d dropped by budget, %d \
        empty)"
       stats.Enum.kept stats.Enum.deduped stats.Enum.dropped stats.Enum.empty);
  (* Demand the table before sharding so workers contend on the cached
     value, not on computing it. *)
  let table = Topo_cache.table (Topo_cache.shared topo) in
  let entries =
    Rtr_sim.Parallel.map ~jobs
      (fun (sc : Enum.scenario) ->
        (sc.Enum.signature, eval_links topo table sc.Enum.links))
      (Array.of_list scenarios)
  in
  let n_cases =
    Array.fold_left (fun acc (_, cs) -> acc + Array.length cs) 0 entries
  in
  let artifact =
    Store.encode
      ~topo_name:(Rtr_topo.Topology.name topo)
      ~n_nodes:(Graph.n_nodes g) ~n_links:(Graph.n_links g)
      (Array.to_list entries)
  in
  let wall_s = Trace.now () -. t0 in
  let n_scenarios = Array.length entries in
  Metrics.Counter.add c_scenarios n_scenarios;
  Metrics.Counter.add c_cases n_cases;
  Metrics.Gauge.set g_bytes (float_of_int (String.length artifact));
  if wall_s > 0.0 then
    Metrics.Gauge.set g_cases_per_sec (float_of_int n_cases /. wall_s);
  log
    (Printf.sprintf "rmap: compiled %d cases into %d bytes in %.2f s" n_cases
       (String.length artifact) wall_s);
  {
    artifact;
    manifest =
      manifest_json ~topo ~config ~stats ~n_scenarios ~n_cases ~artifact ~jobs
        ~wall_s;
    stats;
    n_scenarios;
    n_cases;
    wall_s;
  }
