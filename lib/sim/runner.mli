(** Per-test-case execution of the three schemes.

    For every case of a scenario this runs RTR (one session per
    [(initiator, trigger)] pair — phase 1's walk starts at the trigger,
    so the same initiator with different triggers runs phase 1 anew,
    while cases sharing both reuse the session as the protocol
    prescribes), FCP and MRC, and reduces each to the metrics the
    paper's evaluation uses. *)

type result = {
  case : Scenario.case;
  (* RTR *)
  rtr_p1_hops : int;
  rtr_p1_bytes : int list;
      (** phase-1 recovery header size per hop, in hop order *)
  rtr_p1_completed : bool;
  rtr_recovered : bool;
  rtr_cost : int option;
      (** recovery-path cost (the stretch numerator), recovered cases
          only — the exact integer the stream codec serialises *)
  rtr_stretch : float option;
      (** recovery-path cost / true shortest (recoverable and recovered
          only); Theorem 2 makes this 1.0 whenever present.  Always
          [stretch_of_dist ~shortest_after] of [rtr_cost]. *)
  rtr_route_bytes : int;
      (** phase-2 header (source route) size; 0 when the view had no
          path *)
  rtr_wasted_tx : int;
      (** irrecoverable cases: byte-hops spent on a false path before
          the packet was discarded (0 when unreachability was
          recognised at the initiator) *)
  rtr_calcs : int;
      (** shortest-path calculations this case actually cost the
          session: 1 for a fresh destination, 0 when the per-destination
          cache already held the path *)
  (* FCP *)
  fcp_delivered : bool;
  fcp_cost : int option;  (** journey cost, delivered cases only *)
  fcp_stretch : float option;
  fcp_calcs : int;
  fcp_hop_bytes : int list;
  fcp_wasted_tx : int;
  (* MRC *)
  mrc_delivered : bool;
  mrc_cost : int option;  (** delivery-path cost, delivered cases only *)
  mrc_stretch : float option;
}

val run_scenario : mrc:Rtr_baselines.Mrc.t -> Scenario.t -> result list
(** Results in case order.  Execution is grouped by (initiator,
    trigger): one RTR session per group serves all its destinations
    from the session's single shortest-path tree. *)

val group_by_session : 'a array -> ('a -> 'k) -> ('k * int list) list
(** Indices of [cases] grouped by [key_of], groups in first-appearance
    order and each group's indices ascending — the session-grouping
    order shared with the recovery-map compiler. *)

val rtr_sp_calculations : result -> int
(** [rtr_calcs] — the paper's accounting for RTR: at most one
    calculation per destination, cached thereafter. *)

val stretch_of_dist : shortest_after:int option -> int -> float option
(** The stretch ratio from an integer cost numerator: [None] when
    [shortest_after] is [None], [Some 1.0] when it is [Some 0], else
    [Some (cost / best)].  Exposed so the stream codec reconstructs
    the exact float stretches from serialised integer costs. *)

val stretch_of_cost : shortest_after:int option -> int option -> float option
(** [stretch_of_dist] lifted over the optional cost: [None] cost means
    not recovered/delivered, hence no stretch. *)
