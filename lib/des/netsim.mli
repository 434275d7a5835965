(** Packet-level discrete-event simulation of a large-scale failure —
    RTR run as a truly distributed protocol.

    The higher-level harness ([Rtr_sim]) evaluates recovery outcomes
    analytically; this simulator instead pushes individual packets
    through the network on the paper's delay model (1.8 ms per hop) and
    lets every router act only on what it can locally know at that
    instant:

    - before the failure, packets follow the pre-failure FIBs;
    - between the failure and its detection (the IGP hold-down),
      packets forwarded onto dead elements are silently black-holed;
    - after detection, a router whose next hop is gone either drops the
      packet (baseline) or runs RTR: the packet carries a
      {!Rtr_core.Phase1.walker} as its phase-1 header, and each router
      it reaches steps that walker under the damage active at that
      instant (so a walk may straddle an episode boundary), adding its
      local failures, until the walk closes at the initiator, which
      computes the recovery path and source-routes it (and every later
      packet for an affected destination) — the recovery path computed
      from nothing but the header contents.  A walk that gets stuck or
      spends {!Rtr_core.Phase1.hop_limit} hops without closing drops
      the packet as [Recovery_impossible];
    - once a router's IGP convergence completes (per
      [Rtr_igp.Convergence]), it forwards on the post-failure FIB and
      RTR steps aside, as Sec. II-B prescribes.

    The simulator reports per-packet fates and a drop/delivery
    timeline, which is how the paper's Sec. I motivation (millions of
    packets lost during convergence) is quantified in
    [examples/live_recovery.ml]. *)

module Graph = Rtr_graph.Graph

type flow = {
  src : Graph.node;
  dst : Graph.node;
  rate_pps : float;  (** packets per second, evenly spaced *)
}

type config = {
  igp : Rtr_igp.Igp_config.t;
  rtr_enabled : bool;
  t_fail : float;  (** when the area fails *)
  t_end : float;  (** traffic generation stops here; in-flight packets drain fully *)
  flows : flow list;
  episodes : (float * Rtr_failure.Damage.t) list;
      (** later ground-truth eras: [(at, damage)] replaces the active
          damage wholesale at absolute time [at] (expected after
          [t_fail]; sorted internally).  Each era restarts the IGP
          convergence clock and swaps the post-convergence FIB; a
          link's detection hold-down counts from the start of its
          current outage, carried across eras while it stays down.
          Recovery sessions built under an earlier era are discarded
          when next consulted.  [[]] — the default everywhere — is the
          original single-failure simulation, bit-identically. *)
}

type drop_reason =
  | Blackhole  (** forwarded onto a dead element before detection *)
  | No_route  (** post-convergence FIB has no entry (dst unreachable) *)
  | Unreachable_in_view  (** RTR phase 2 found no path; early discard *)
  | Missed_failure
      (** a source route hit a failure its phase 1 missed and the
          router at the break could not recover either (with RTR on,
          that router first becomes a new initiator, Sec. III-E
          style) *)
  | Recovery_impossible  (** detecting router had no live neighbour *)
  | Ttl_expired
      (** the packet crossed 255 hops — transient micro-loops between
          converged and not-yet-converged routers end this way, exactly
          as in real IP networks *)

type stats = {
  generated : int;
  delivered : int;
  dropped : int;
  drops_by_reason : (drop_reason * int) list;
  mean_delay_s : float;  (** over delivered packets *)
  max_delay_s : float;
  phase1_packets : int;  (** packets that travelled a collection walk *)
  timeline : (float * int * int) list;
      (** (bucket start, delivered, dropped) in 50 ms buckets from
          simulation start *)
}

val run : Rtr_topo.Topology.t -> Rtr_failure.Damage.t -> config -> stats
(** Deterministic: no randomness is involved once the inputs are
    fixed.  The pre-failure and each epoch's post-failure routing
    tables come from the topology's shared
    {!Rtr_routing.Topo_cache}. *)

val ensure_metrics_registered : unit -> unit
(** No-op whose only purpose is to force this module to be linked (and
    its counters registered, at zero) into binaries that expose metric
    snapshots but may never run a packet simulation. *)

val pp_drop_reason : Format.formatter -> drop_reason -> unit
