(** Reproduction of every table and figure in the paper's Sec. IV.

    [collect] gathers the paper's workload — per topology, random disc
    failures until quota many recoverable and irrecoverable test cases
    have been evaluated — and the per-artifact functions reduce the
    collected data to printable tables and figure series.  The paper
    used 10,000 + 10,000 cases per topology; the default here is 2,000
    of each, and [rtr_sim --cases] sets any other quota. *)

type config = {
  presets : Rtr_topo.Isp.preset list;
  recoverable_per_topo : int;
  irrecoverable_per_topo : int;
  seed : int;
  mrc_k : int option;  (** [None]: smallest feasible k *)
  jobs : int;
      (** Worker domains for scenario evaluation (1 = sequential).
          Results are independent of this value: generation stays on
          one sequential RNG and evaluation shards deterministically
          (see [Parallel.map]). *)
}

val default_config : config
(** Table II presets, 2,000 cases of each kind per topology, seed 7,
    automatic MRC k, one job.  Reads no environment: [rtr_sim]'s
    [--jobs] flag, defaulting to [Parallel.env_jobs], sets [jobs]. *)

type topo_data = {
  preset : Rtr_topo.Isp.preset;
  topo : Rtr_topo.Topology.t;
  mrc_configs : int;
  recoverable : Runner.result list;
  irrecoverable : Runner.result list;
}

val generate : config -> Stream.header * Stream.scenario list
(** [Pipeline.generate] over the config's presets, case quotas, seed
    and [mrc_k]. *)

val collect : ?log:(string -> unit) -> config -> topo_data list
(** The three pipeline stages run in process: {!generate}
    (sequential RNG until both quotas are met), [Pipeline.evaluate]
    (streaming across [config.jobs] worker domains with bounded
    in-flight work), and {!reduce_stream}.  The returned data is
    bit-identical for every [jobs] value and for every shard split of
    the file-based path; [test/test_golden.ml] pins the reports it
    feeds. *)

val reduce_stream :
  ?log:(string -> unit) ->
  header:Stream.header ->
  mrc:(string * int) list ->
  Stream.result array ->
  topo_data list
(** The reduce stage: evaluated records (indexed by seq, dense) folded
    back into per-topology data, deterministically — iteration is in
    seq order, so the output is independent of how evaluation was
    sharded or scheduled.  Emits the per-topology log lines and the
    [experiments.*] counters (this is the only stage that does, so a
    split run reports them exactly once).  [mrc] maps topology names to
    the MRC configuration counts the evaluate stage recorded; missing
    topologies are rebuilt. *)

val reduce_shards :
  ?log:(string -> unit) ->
  header:Stream.header ->
  Shard_store.loaded list ->
  topo_data list
(** {!reduce_stream} over loaded shard files: validates the shards are
    a complete, non-overlapping cover of the stream (same shard count,
    same record count, every shard index present, every seq present)
    and that their footers agree, then reduces.  Raises [Failure]
    otherwise. *)

(** {1 Printable artifacts} *)

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

val table2 : config -> table
(** Topology summary (needs no simulation). *)

val fig7 : topo_data list -> figure
(** CDF of phase-1 duration (ms), per AS, both case kinds. *)

val table3 : topo_data list -> table
(** Recovery rate / optimal recovery rate / max stretch / max
    computational overhead for RTR, FCP, MRC on recoverable cases. *)

val fig8 : topo_data list -> figure
(** CDF of recovery-path stretch (successfully recovered cases). *)

val fig9 : topo_data list -> figure
(** CDF of shortest-path calculations, recoverable cases. *)

val fig10 : topo_data list -> figure
(** Average recovery-header bytes carried per in-flight packet over
    the first second, RTR vs FCP (see DESIGN.md §6 for the timeline
    model). *)

val fig11 :
  ?log:(string -> unit) ->
  ?areas_per_radius:int ->
  ?radii:float list ->
  config ->
  figure
(** Percentage of failed routing paths that are irrecoverable, radius
    20..300 step 20 (paper: 1,000 areas per radius; default here 200,
    scaled by [areas_per_radius]). *)

val fig12 : topo_data list -> figure
(** CDF of wasted shortest-path calculations, irrecoverable cases. *)

val fig13 : topo_data list -> figure
(** CDF of wasted transmission (byte-hops), irrecoverable cases. *)

val table4 : topo_data list -> table
(** Average/max wasted computation and transmission, with the paper's
    headline savings percentages in the footer row. *)

val extension_bidir : ?cases:int -> config -> table
(** Not in the paper: the bidirectional-walk extension
    ([Rtr_core.Bidir]).  Compares the single right-hand walk against
    launching one packet per direction — delay to first return, delay
    until both return, links collected, and recovery rate from the
    merged view.  [cases] per topology, default 500. *)

val instance_variance : ?cases:int -> ?instances:int -> config -> table
(** Not in the paper: topology-instance sensitivity.  Regenerates each
    AS several times (same size and style, different seeds) and reports
    the spread of RTR's recovery rate across instances — the error bars
    the synthetic-topology substitution (DESIGN.md §2) carries.
    [instances] default 5, [cases] per instance default 400. *)

val ablation_mrc_k : ?cases:int -> ?ks:int list -> config -> table
(** Not in the paper: MRC's recovery rate as a function of the number
    of configurations k (more configurations isolate smaller slices,
    which helps under area failures up to a point).  Guards against
    the comparison being an artefact of one k.  Default ks: 4, 6, 8,
    12, 16. *)

val ablation_constraints : ?cases:int -> config -> table
(** Not in the paper: an ablation of Constraints 1 and 2 (Sec. III-C).
    Reruns recoverable cases with the cross-link machinery disabled
    (the naked right-hand rule of the planar case) and compares
    recovery rate, collected failed links, and walk length.  This is
    the design choice the paper motivates with Figs. 4/5; the ablation
    quantifies it.  [cases] per topology, default 500. *)

(** {1 Flow-level congestion (not in the paper)} *)

val congestion_schemes : Rtr_des.Flowsim.scheme list
(** All five schemes, [No_recovery] first. *)

val congestion_data :
  ?log:(string -> unit) ->
  ?flows_per_topo:int ->
  ?schemes:Rtr_des.Flowsim.scheme list ->
  config ->
  (Rtr_topo.Isp.preset * (Rtr_des.Flowsim.scheme * Rtr_des.Flowsim.stats) list)
  list
(** The flow-level sweep: per topology, one seeded large-scale disc
    failure, one demand matrix ([flows_per_topo] flows, default
    125,000), every scheme evaluated on the identical flows.
    Evaluation shards over a fixed chunk grid with [config.jobs]
    workers and merges integer accumulators — results are
    byte-identical for every jobs value.  A topology whose damage no
    scheme recovers a flow from is logged and counted in
    [experiments.noop_damages]; its rows stay in the table. *)

val congestion_table :
  (Rtr_topo.Isp.preset * (Rtr_des.Flowsim.scheme * Rtr_des.Flowsim.stats) list)
  list ->
  table
(** One row per (topology, scheme): delivered fraction, recovery rate
    of broken flow-eras, aggregate and max stretch, recovery-window
    peak load relative to the pre-failure peak, overloaded links. *)

val congestion_figure :
  (Rtr_topo.Isp.preset * (Rtr_des.Flowsim.scheme * Rtr_des.Flowsim.stats) list)
  list ->
  figure
(** CDF of per-link recovery-window load on the first topology, one
    series per scheme (sans [No_recovery]). *)
