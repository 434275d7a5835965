(** The RTR recovery engine: one recovery session per initiator.

    Glues the two phases together and simulates the fate of rerouted
    packets against the ground-truth damage (which the protocol itself
    never reads — it is used only to find out whether the source-routed
    packet survives, exactly as the network would).

    Phase 1 runs once per initiator and serves every destination
    (Sec. III-A); [recover] per destination then costs exactly one
    shortest-path calculation. *)

module Graph = Rtr_graph.Graph

type outcome =
  | Recovered of Rtr_graph.Path.t
      (** delivered over this path — by Theorem 2 it is a shortest path
          in the truly damaged topology *)
  | Unreachable_in_view
      (** the post-phase-1 view offers no path: RTR discards packets at
          the initiator after its single calculation *)
  | False_path of { path : Rtr_graph.Path.t; dropped_at : Graph.node; hops_done : int }
      (** phase 1 missed a failure and the source route hit it; the
          packet is discarded there (Sec. III-D) *)

type t

val start :
  Rtr_topo.Topology.t ->
  Rtr_failure.Damage.t ->
  ?batched:bool ->
  initiator:Graph.node ->
  trigger:Graph.node ->
  unit ->
  t
(** Runs phase 1 and prepares phase 2 ({!Phase2.create} over the
    phase-1 collection).

    [batched] is ignored.  It names a phase-2 mode that no longer
    exists and stays only so the benchmark harness, which still passes
    [~batched:true], keeps compiling; new callers must not pass it. *)

val phase1 : t -> Phase1.result

val recover : t -> dst:Graph.node -> outcome

val recovery_distance : t -> dst:Graph.node -> int option
(** Cost of the recovery path in the session's post-phase-1 view, from
    the session's SPT distance labels ([None] when the destination is
    unreachable in the view).  Served from the per-destination cache:
    after a [recover ~dst], this is a cache hit, not a second
    shortest-path calculation. *)

val sp_calculations : t -> int
(** Shortest-path calculations performed so far by this session. *)
