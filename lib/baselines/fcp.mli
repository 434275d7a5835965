(** FCP — Failure-Carrying Packets (Lakshminarayanan et al., SIGCOMM
    2007), source-routing variant: the reactive baseline of the paper's
    evaluation.

    The recovery initiator computes a shortest path to the destination
    over its view (the pre-failure map minus the failed links already
    listed in the packet header), writes it into the header, and sends
    the packet.  Whenever the packet reaches a router whose next source-
    route hop is unreachable, that router appends every failed link it
    can locally see to the header, recomputes a shortest path from
    itself with the carried failures removed, and re-source-routes.  A router that finds no remaining
    path discards the packet.

    Every recomputation is one unit of the paper's computational
    overhead; the header carries 2 bytes per recorded link plus the
    source route. *)

module Graph = Rtr_graph.Graph

type hop_record = {
  from_ : Graph.node;
  to_ : Graph.node;
  header_bytes : int;  (** recovery bytes carried while crossing this hop *)
}

type result = {
  delivered : bool;
  journey : Rtr_graph.Path.t;
      (** full node sequence travelled, starting at the initiator; ends
          at the destination iff [delivered], else at the discarding
          router *)
  sp_calculations : int;
  carried_links : Graph.link_id list;
      (** failed links in the header at the end, in insertion order *)
  hops : hop_record list;  (** per-hop byte accounting, in order *)
  discarded_at : Graph.node option;
}

type session
(** FCP recoveries over one damage, sharing shortest-path trees.

    A recomputing router's view is the pre-failure map minus the links
    carried in the header, so its tree is a function of (router,
    carried-link {e set}) alone — not of the destination, the initiator
    or the order the links joined the header.  A session computes each
    distinct such tree once and keeps it: one owned tree ([Spt.copy],
    three [int] arrays of the node count) per distinct (router, carried
    set) it has met, held until the session is dropped.  Routes served
    from a shared tree equal fresh [run]s field for field,
    [sp_calculations] included: every protocol recomputation counts,
    whether its tree was computed or found.

    Sessions are single-domain values. *)

val start : Rtr_topo.Topology.t -> Rtr_failure.Damage.t -> session
(** An empty session; trees are computed on demand by [route]. *)

val route : session -> initiator:Graph.node -> dst:Graph.node -> result
(** Runs one FCP recovery.  Terminates in at most |E| recomputations:
    each one is triggered by a failure absent from the header, which it
    then records.  The initiator must be live and differ from [dst]
    ([Invalid_argument] otherwise). *)

val run :
  Rtr_topo.Topology.t ->
  Rtr_failure.Damage.t ->
  initiator:Graph.node ->
  dst:Graph.node ->
  result
(** [route (start topo damage) ~initiator ~dst]: one recovery in a
    throw-away session. *)

val wasted_transmission : result -> int
(** Byte-hops of the journey under the paper's Sec. IV-D pricing:
    (1000-byte payload + recovery header) summed over hops travelled. *)
