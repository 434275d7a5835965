(** The ISP topologies of the paper's evaluation (Table II).

    Eight Rocketfuel-derived ASes, rebuilt synthetically with the exact
    node and link counts of Table II, plus the two extra ASes (AS2914,
    AS3356) that appear only in Figs. 11-12 of the paper, flagged
    approximate.  Loading is deterministic: each preset carries its own
    seed. *)

type preset = {
  as_name : string;
  nodes : int;
  links : int;
  seed : int;
  approx : bool;
      (** true for the two ASes absent from Table II, whose sizes we
          estimated from published Rocketfuel maps *)
  style : Generator.style;
      (** per-AS generator calibration (see DESIGN.md: chosen so that
          phase-1 walk lengths and recovery rates land in the paper's
          reported per-AS ranges) *)
}

val table2 : preset list
(** The eight ASes of Table II, in the paper's order. *)

val all : preset list
(** [table2] followed by the approximate extras AS2914 and AS3356. *)

val find : string -> preset option
(** Lookup by name, e.g. ["AS1239"]. *)

val load : preset -> Topology.t
(** Generates the topology (cached per preset for the process
    lifetime — crossing precomputation is the expensive part). *)

val load_by_name : string -> Topology.t
(** Raises [Not_found] for an unknown name. *)
