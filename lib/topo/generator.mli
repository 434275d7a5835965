(** Synthetic ISP-like topologies.

    Substitute for the Rocketfuel-measured maps of Table II (the raw
    data is not distributable here; see DESIGN.md §2).  The generator
    reproduces the properties the evaluation is sensitive to:

    - exact node and link counts;
    - geographic locality (links prefer short distances, Waxman-style),
      so that a disc failure takes out a correlated set of links;
    - heavy-tailed degrees via preferential attachment, so dense ASes
      get hub-and-spoke cores;
    - tree branches in sparse ASes (the spanning phase attaches each
      new router to a nearby existing one, which for low link budgets
      leaves many degree-1 branches — the AS7018 effect of Fig. 7).

    Generation is deterministic in the seed. *)

type style = {
  locality : float;
      (** Waxman decay length as a fraction of the area diagonal;
          smaller = stronger preference for short links.  Typical 0.1 -
          0.4. *)
  pref_attach : float;
      (** Exponent on (degree + 1) when sampling endpoints for extra
          links; 0 = uniform, 1 = linear preferential attachment. *)
  spanning_pref : float;
      (** Exponent on (degree + 1) when choosing the attachment point
          in the spanning phase; larger values give bushier, shallower
          trees (fewer long branches for phase-1 walks to double-
          traverse). *)
}

val default_style : style
(** locality 0.05, pref_attach 1.0, spanning_pref 0. *)

val generate :
  Rtr_util.Rng.t ->
  name:string ->
  n:int ->
  m:int ->
  ?style:style ->
  ?width:float ->
  ?height:float ->
  unit ->
  Topology.t
(** A connected topology with exactly [n] routers and [m] links, unit
    link costs.  Raises [Invalid_argument] when [m < n - 1] or [m]
    exceeds the number of node pairs. *)
