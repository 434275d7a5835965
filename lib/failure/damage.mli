(** Concrete damage: which routers and links have failed.

    This is the ground truth E2 of the paper's Theorem 2 — the
    protocols never read it directly; they only observe local neighbour
    unreachability ([neighbor_unreachable]) exactly as a real router
    would.  The experiment harness reads it to score outcomes. *)

module Graph = Rtr_graph.Graph

type t

val apply : Rtr_topo.Topology.t -> Area.t -> t
(** Routers inside the area fail; links whose embedding touches the
    area fail; links incident to a failed router fail too. *)

val of_failed :
  Graph.t -> nodes:Graph.node list -> links:Graph.link_id list -> t
(** Arbitrary failure sets (single link failures, adversarial tests);
    links incident to the given nodes are added automatically. *)

val none : Graph.t -> t
(** No damage. *)

val merge : t -> t -> t
(** Union of two damages on the same graph — multiple failure areas. *)

val restore :
  t -> ?nodes:Graph.node list -> ?links:Graph.link_id list -> unit -> t
(** Episode repair: clear the failed bits of the given elements and
    re-seal.  A restored link whose endpoint router is still failed
    stays unusable — repairs never resurrect dead routers. *)

val equal : t -> t -> bool
(** Same graph (physically) and identical failed sets. *)

val view : t -> Rtr_graph.View.t
(** The surviving network as a failure view: everything not failed.
    Computed once when the damage is sealed — callers share one bitset
    pair instead of re-deriving closures per traversal. *)

val node_ok : t -> Graph.node -> bool
val link_ok : t -> Graph.link_id -> bool

val node_failed : t -> Graph.node -> bool
val link_failed : t -> Graph.link_id -> bool

val failed_nodes : t -> Graph.node list
val failed_links : t -> Graph.link_id list
(** Ascending; [failed_links] includes links incident to failed
    routers. *)

val n_failed_links : t -> int

val neighbor_unreachable : t -> Graph.node -> Graph.link_id -> bool
(** What a live router can locally observe about a neighbour: the
    connecting link failed or the neighbour itself failed — the two are
    indistinguishable from the router's viewpoint (Sec. II-A).  The
    [node] argument is the neighbour. *)

val unreachable_neighbors : t -> Graph.t -> Graph.node -> (Graph.node * Graph.link_id) list
(** All locally-unreachable neighbours of a live router. *)

val pp : Format.formatter -> t -> unit
