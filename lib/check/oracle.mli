(** Theorem and differential oracles.

    Each oracle takes a materialised {!Spec.t} and either accepts it or
    returns the first violation found.  Oracles only ever compare the
    protocol's behaviour against ground truth (full Dijkstra over
    [Damage.view], exhaustive reachability) or against an independent
    implementation of the same computation — they never re-derive the
    protocol's own answer.  The registry {!all} holds one record per
    oracle below; {!find} reaches one by name.

    Each theorem has one checker, {!Episode}: the static theorem oracles
    are its (base, base) transition and its single-link sweep over the
    intact topology, the episode oracles the same code over a timeline.

    - [no_loop] — Theorem 1: every phase-1 walk terminates by closing
      its cycle, within the 4|E|+4 TTL, never repeating a
      (router, header-state) pair; phase-2 paths are simple.  The
      [thm1] of {!Episode.measure} on the spec without its timeline.
    - [optimal] — Theorem 2: a {e delivered} recovery path is shortest
      in the {e truly} damaged topology (phase 1 collects E1 ⊆ E2, so a
      first attempt may legitimately drop at an uncollected failure);
      emitted source routes never cross a link the initiator knew had
      failed; "unreachable" verdicts are never false.  The
      [first_thm2] of {!Episode.measure} on the spec without its
      timeline.
    - [single_link] — Theorem 3: {!Episode.single_link} over
      [Damage.none]: every non-bridge link fails on its own and every
      destination it leaves reachable recovers optimally.
    - [fcp_vs_reference] — every case of the damage, run twice in
      shuffled order through one FCP session, equals
      {!Reference.fcp} field for field; a session route that overruns
      FCP's recomputation bound is a violation, not a hang.
    - [graph_vs_reference] — for every root on the full and the damaged
      view, owned and workspace SPTs (both directions) equal
      {!Reference.spt} bit for bit, routing-table rows equal its
      To_root trees, and component membership equals its
      reachability.  The workspace is the domain's own, so a campaign
      also exercises reuse across graph shapes.
    - [dial_vs_heap] — SPTs computed through the Dial bucket queue
      (selected whenever the graph's cost bound fits) equal the
      binary-heap SPTs of a copy whose costs are scaled past the Dial
      cap: same parents, distances times the scale, full and damaged
      views, both directions.
    - [parallel_vs_sequential] — evaluating the scenario's cases on a
      multi-domain pool yields results structurally identical to the
      sequential run.
    - [rmap_vs_reactive] — compiling the failure into an [rmap/1]
      artifact and probing it back returns, case for case, exactly what
      an independently-built reactive session answers (fresh sessions
      without the shared SPT cache, costs summed link by link).
    - [episode_no_loop] / [episode_optimal] / [episode_single_link] —
      the three theorems re-evaluated per episode transition of a
      timeline spec (see {!Episode}); all three return [None] instantly
      on a static spec.
    - [flow_vs_packet] — the flow-level engine's delivered fractions
      match the per-packet engine within tolerance on the same demand
      matrix, RTR on and off (static specs only: it returns [None]
      instantly on episode timelines, the mirror image of the episode
      oracles' static short-circuit). *)

type violation = { oracle : string; detail : string }

type injection =
  | Drop_failed_link
      (** Deliberately weaken phase 2 by dropping the last link phase 1
          collected before the view is built — the Theorem-2 bug the
          fuzzer must be able to catch.  Honoured by {!Episode.measure},
          hence by [no_loop], [optimal], [episode_no_loop] and
          [episode_optimal]. *)
  | Truncate_walk
      (** Cut phase-1 walks at 3 hops — far below the 4|E|+4 TTL of
          Theorem 1 — so terminating walks report [Hop_limit]: the
          Theorem-1 bug the fuzz and episode gates' self-checks must
          catch.  Honoured by {!Episode.measure}, hence by [no_loop],
          [optimal], [episode_no_loop] and [episode_optimal]. *)

val injection_to_string : injection -> string
val injection_of_string : string -> injection option

type t = {
  name : string;
  doc : string;
  run : inject:injection option -> Spec.t -> violation option;
}

(** Per-transition re-evaluation of the three theorems over a spec's
    episode timeline — the machinery behind the theorem-survival
    matrix. *)
module Episode : sig
  type kind = Static | Cascading | Transient | Moving

  val kind_to_string : kind -> string
  val kind_of_string : string -> kind option

  type stats = {
    transitions : int;  (** timeline transitions evaluated (≥ 1) *)
    sessions : int;  (** recovery sessions scored *)
    checks : int;  (** (session, destination) checks *)
    thm1 : violation option;
        (** first Theorem-1 violation — must stay [None] under every
            relaxation *)
    thm2_violations : int;  (** total Theorem-2 relaxation violations *)
    delivered_suboptimal : int;
        (** delivered over a detour (stale view excludes restored
            links) — the transient signature *)
    failed_recoverable : int;
        (** dropped at an uncollected new failure though the
            destination is recoverable — the cascading signature *)
    false_unreachable : int;
        (** "unreachable" verdict for a recoverable destination — only
            a transient repair can cause it *)
    stretch_sum : float;  (** Σ cost/optimal over suboptimal deliveries *)
    stretch_max : float;
    first_thm2 : violation option;
  }

  val measure : inject:injection option -> Spec.t -> stats
  (** Score every timeline transition d_prev → d_next: phase 1 walks
      d_prev (the stale picture), phase 2 is built from that collection
      against d_next, packets are forwarded and judged under d_next.  A
      source route that crosses a link the initiator knew had failed
      (its collection before any injected drop, plus its own dead links
      under d_next) is a Theorem-2 violation.  A static spec
      degenerates to the single pair (base, base) — the setting of
      Theorems 1 and 2, the matrix's baseline row.  Violations are
      named after the registry oracle that reproduces them: [no_loop]
      and [optimal] on a static spec, [episode_no_loop] and
      [episode_optimal] otherwise. *)

  val single_link :
    oracle:string ->
    Rtr_topo.Topology.t ->
    Rtr_failure.Damage.t ->
    int * violation option
  (** Theorem 3 over a settled base damage: each alive link that is no
      bridge of the base network fails on its own, with the base damage
      carried as converged knowledge; returns (checks, first violation,
      named [oracle]).  Must hold exactly.  [single_link] runs it over
      [Damage.none], [episode_single_link] over a timeline's last
      epoch. *)
end

val all : t list
(** Every oracle, in the order the campaign runs them and the header
    above lists them. *)

val find : string -> t option
(** The oracle of [all] with this name. *)
