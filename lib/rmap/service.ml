module Graph = Rtr_graph.Graph
module Damage = Rtr_failure.Damage
module Metrics = Rtr_obs.Metrics
module Trace = Rtr_obs.Trace
module Topo_cache = Rtr_routing.Topo_cache

let c_fallback = Metrics.counter "rmap.fallback_reactive"
let g_per_sec = Metrics.gauge "rmap.lookups_per_sec"
let g_lookup_ns = Metrics.gauge "rmap.lookup_ns"

type t = { store : Store.t; topo : Rtr_topo.Topology.t option }

let create ?topo store =
  match topo with
  | None -> Ok { store; topo = None }
  | Some topo ->
      let g = Rtr_topo.Topology.graph topo in
      if
        Graph.n_nodes g <> Store.n_nodes store
        || Graph.n_links g <> Store.n_links store
      then
        Error
          (Printf.sprintf
             "topology %s (%d nodes, %d links) does not match the artifact \
              (%d nodes, %d links)"
             (Rtr_topo.Topology.name topo)
             (Graph.n_nodes g) (Graph.n_links g) (Store.n_nodes store)
             (Store.n_links store))
      else Ok { store; topo = Some topo }

type reply = {
  from_artifact : bool;
  kind : Store.kind;
  cost : int;
  true_cost : int;
  stretch : float option;
  path : int array;
}

let reply ~from_artifact kind ~cost ~true_cost path =
  {
    from_artifact;
    kind;
    cost;
    true_cost;
    stretch =
      (match kind with
      | Store.Recovered -> Store.stretch ~cost ~true_cost
      | Store.Unreachable | Store.False_path -> None);
    path;
  }

let no_case ~initiator ~trigger ~dst =
  Error
    (Printf.sprintf "no recovery case (v%d, v%d) -> v%d under this failure"
       initiator trigger dst)

(* The reactive miss path: the compiler's case test and case answer for
   exactly the queried case — one route-table read, one Dijkstra for
   the true cost and one RTR session — so the answer is the one the
   artifact would have held. *)
let fallback t ~links ~initiator ~trigger ~dst =
  match t.topo with
  | None -> Error "signature not in the artifact (no fallback topology)"
  | Some topo -> (
      Metrics.Counter.incr c_fallback;
      let table = Topo_cache.table (Topo_cache.shared topo) in
      let damage =
        Damage.of_failed (Rtr_topo.Topology.graph topo) ~nodes:[] ~links
      in
      match Rtr_sim.Scenario.find_case topo table damage ~initiator ~dst with
      | Some c when c.Rtr_sim.Scenario.trigger = trigger ->
          let s = Rtr_core.Rtr.start topo damage ~initiator ~trigger () in
          let c = Compile.eval_case s c in
          Ok
            (reply ~from_artifact:false c.Store.kind ~cost:c.Store.cost
               ~true_cost:c.Store.true_cost c.Store.path)
      | Some _ | None -> no_case ~initiator ~trigger ~dst)

let query t ~links ~initiator ~trigger ~dst =
  let n_links = Store.n_links t.store in
  let n_nodes = Store.n_nodes t.store in
  let bad_node v = v < 0 || v >= n_nodes in
  if bad_node initiator || bad_node trigger || bad_node dst then
    Error
      (Printf.sprintf "node out of range (the topology has %d routers)"
         n_nodes)
  else
    match Signature.of_links ~n_links links with
    | exception Invalid_argument m -> Error m
    | signature -> (
        match Store.find t.store signature with
        | Some slot -> (
            let store = t.store in
            match Store.case_index store ~slot ~initiator ~trigger ~dst with
            | -1 -> no_case ~initiator ~trigger ~dst
            | i ->
                Ok
                  (reply ~from_artifact:true (Store.case_kind store i)
                     ~cost:(Store.case_cost store i)
                     ~true_cost:(Store.case_true_cost store i)
                     (Store.case_path store i)))
        | None -> fallback t ~links ~initiator ~trigger ~dst)

type bench = {
  lookups : int;
  hits : int;
  misses : int;
  wall_s : float;
  per_sec : float;
  ns_per_lookup : float;
}

let bench_lookups t ~n ~seed =
  Trace.with_ "rmap.bench_lookups" ~attrs:[ ("n", string_of_int n) ]
  @@ fun () ->
  let store = t.store in
  let n_slots = Store.n_scenarios store in
  let n_links = Store.n_links store in
  let rng = Rtr_util.Rng.make seed in
  (* Pre-draw the probe set so the timed loop measures lookups, not
     signature construction.  1 in 8 probes toggles one link of a real
     signature — usually a miss, occasionally a hit on a neighbouring
     scenario; both are legitimate probes. *)
  let n_samples = min (max n 1) 8192 in
  let samples =
    Array.init n_samples (fun _ ->
        if n_slots = 0 then Signature.of_links ~n_links []
        else
          let s = Store.signature store (Rtr_util.Rng.int rng n_slots) in
          if Rtr_util.Rng.int rng 8 <> 0 then s
          else begin
            let toggle = Rtr_util.Rng.int rng (max n_links 1) in
            let links = Signature.to_links s in
            let links =
              if List.mem toggle links then
                List.filter (fun l -> l <> toggle) links
              else toggle :: links
            in
            Signature.of_links ~n_links links
          end)
  in
  let hits = ref 0 in
  let sink = ref 0 in
  let t0 = Trace.now () in
  for i = 0 to n - 1 do
    let slot = Store.find_slot store (Array.unsafe_get samples (i mod n_samples)) in
    if slot >= 0 then begin
      incr hits;
      (* Touch the record like a real query would: first case's cost. *)
      let first, count = Store.case_range store slot in
      if count > 0 then sink := !sink lxor Store.case_cost store first
    end
  done;
  let wall_s = Trace.now () -. t0 in
  ignore !sink;
  let per_sec = if wall_s > 0.0 then float_of_int n /. wall_s else 0.0 in
  let ns = if n > 0 then wall_s *. 1e9 /. float_of_int n else 0.0 in
  Metrics.Gauge.set g_per_sec per_sec;
  Metrics.Gauge.set g_lookup_ns ns;
  {
    lookups = n;
    hits = !hits;
    misses = n - !hits;
    wall_s;
    per_sec;
    ns_per_lookup = ns;
  }
