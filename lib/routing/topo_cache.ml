module View = Rtr_graph.View
module Metrics = Rtr_obs.Metrics

let c_table_hits = Metrics.counter "topo_cache.table_hits"
let c_table_misses = Metrics.counter "topo_cache.table_misses"
let c_post_hits = Metrics.counter "topo_cache.post_hits"
let c_post_misses = Metrics.counter "topo_cache.post_misses"

type t = {
  topo : Rtr_topo.Topology.t;
  full_view : View.t;
  (* One cache is shared by every worker domain of a parallel run, so
     lookups compute under [lock].  Computing inside the critical
     section (rather than racing and discarding duplicates) keeps the
     hit/miss counters exactly what a sequential run would record. *)
  lock : Mutex.t;
  mutable table : Route_table.t option;
  (* The last damage asked of [post_table] and its table. *)
  mutable post : (Rtr_failure.Damage.t * Route_table.t) option;
}

let create topo =
  let g = Rtr_topo.Topology.graph topo in
  {
    topo;
    full_view = View.full g;
    lock = Mutex.create ();
    table = None;
    post = None;
  }

let topology t = t.topo

(* Process-wide registry, so every harness stage working on the same
   topology shares one cache (the BENCH_0003 bug: each stage [create]d
   its own cache, queried the table exactly once, and recorded a miss —
   24 misses, 0 hits).  Keyed by topology name with a physical-equality
   guard: [Isp.load] memoises per AS so reloads are physically equal,
   while a same-named but distinct topology (generated test graphs)
   replaces the stale entry instead of being served wrong tables. *)
let registry : (string, t) Hashtbl.t = Hashtbl.create 8
let registry_lock = Mutex.create ()

let shared topo =
  Mutex.protect registry_lock (fun () ->
      let name = Rtr_topo.Topology.name topo in
      match Hashtbl.find_opt registry name with
      | Some c when c.topo == topo -> c
      | _ ->
          let c = create topo in
          Hashtbl.replace registry name c;
          c)

let table t =
  Mutex.protect t.lock (fun () ->
      match t.table with
      | Some table ->
          Metrics.Counter.incr c_table_hits;
          table
      | None ->
          Metrics.Counter.incr c_table_misses;
          let table = Route_table.compute t.full_view in
          t.table <- Some table;
          table)

let post_table t damage =
  Mutex.protect t.lock (fun () ->
      match t.post with
      | Some (d, table) when d == damage ->
          Metrics.Counter.incr c_post_hits;
          table
      | _ ->
          Metrics.Counter.incr c_post_misses;
          let table = Route_table.compute (Rtr_failure.Damage.view damage) in
          t.post <- Some (damage, table);
          table)
