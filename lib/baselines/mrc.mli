(** MRC — Multiple Routing Configurations (Kvalbein et al., INFOCOM
    2006): the proactive baseline of the paper's evaluation.

    Ahead of any failure, the network precomputes k routing
    configurations.  In configuration c a subset of nodes is
    {e isolated}: each keeps one usable ("restricted") link, to a node
    not isolated in c, and all its other links are masked, so shortest
    paths only touch it as first or last hop.  Every node is isolated in
    exactly one configuration, and the non-isolated backbone of every
    configuration stays connected — so any {e single} component failure
    can be routed around by switching to the configuration that
    isolates it.

    Recovery: the detecting router switches the packet to the
    configuration isolating its unreachable next hop and forwards; the
    packet stays in that configuration (one switch only — the design
    assumes sporadic failures).  Under area failures the chosen
    configuration's paths frequently hit further damage, which is
    exactly the weakness the paper quantifies (Table III). *)

module Graph = Rtr_graph.Graph

type t

val build : Graph.t -> k:int -> t option
(** Greedy isolation with backbone-connectivity checks; [None] when
    [k] configurations cannot cover every isolatable node. *)

val build_auto : ?k_start:int -> ?k_max:int -> Graph.t -> t
(** The first feasible k of [k_start], [k_start + 1], ... up to [k_max]
    (defaults 4, 64); [k_start] itself is tried even above [k_max].
    Raises [Invalid_argument] as {!build} does for k < 2, and [Failure]
    if even [k_max] does not suffice (never observed on connected
    graphs of the evaluation's sizes). *)

val configs_needed : ?k_start:int -> ?k_max:int -> Graph.t -> int
(** [n_configs (build_auto ?k_start ?k_max g)], with the same
    exceptions, from the isolation assignment alone: whether k
    configurations suffice depends only on the assignment ([build g ~k]
    is [None] iff it fails), so this skips the k x n shortest-path
    trees of the forwarding tables. *)

val n_configs : t -> int

val config_of : t -> Graph.node -> int option
(** The configuration in which this node is isolated; [None] for
    unprotected nodes (articulation points — MRC cannot isolate a node
    whose removal disconnects the backbone, a documented limitation of
    the scheme on non-biconnected networks). *)

val unprotected : t -> Graph.node list
(** Nodes isolated in no configuration. *)

val isolated_in : t -> int -> Graph.node list

val next_hop : t -> config:int -> src:Graph.node -> dst:Graph.node -> Graph.node option
(** The precomputed per-configuration forwarding table. *)

type outcome =
  | Delivered of Rtr_graph.Path.t
  | Dropped of { at : Graph.node; hops_done : int }

val recover :
  t ->
  Rtr_failure.Damage.t ->
  initiator:Graph.node ->
  trigger:Graph.node ->
  dst:Graph.node ->
  outcome
(** One recovery attempt: switch at [initiator] to the configuration
    isolating [trigger] (choosing the initiator's first hop around its
    locally-visible failures), then follow that configuration's tables.
    Any further unreachable hop drops the packet. *)
