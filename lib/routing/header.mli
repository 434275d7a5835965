(** Packet-header byte accounting.

    The paper's transmission-overhead metric is "the number of bytes
    used for recording information" in packet headers (Sec. IV-C).
    Link and node ids are 16 bits (Sec. III-B).  This module is the
    single place where header layouts are priced, shared by RTR and
    FCP so the comparison is apples-to-apples. *)

val link_id_bytes : int
(** 2 — "the link id is represented by 16 bits". *)

val node_id_bytes : int
(** 2 — node ids in source routes use the same width. *)

val payload_bytes : int
(** 1000 — the paper's assumed packet size when pricing wasted
    transmission (Sec. IV-D). *)

val rtr_phase1 : n_failed:int -> n_cross:int -> int
(** Bytes of recovery state carried by a phase-1 packet: the 1-byte
    mode flag, the 2-byte recovery-initiator id and the two link-id
    lists. *)

val source_route : hops:int -> int
(** Bytes of a source route crossing [hops] links: one node id per hop
    (the first hop's transmitting node needs no entry). *)

val rtr_phase2 : hops:int -> int
(** Phase-2 packets carry the mode flag + the source route. *)

val fcp : n_failed:int -> route_hops:int -> int
(** FCP (source-routing variant) carries the accumulated failed-link
    list and the current source route. *)
