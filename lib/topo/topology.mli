(** A topology: graph + geographic embedding + precomputed crossings.

    This is the unit every protocol and experiment operates on.  The
    crossing relation is derived eagerly at construction because RTR
    assumes routers precompute it. *)

type t = {
  name : string;
  graph : Rtr_graph.Graph.t;
  embedding : Embedding.t;
  crossings : Crossings.t;
}

val create : name:string -> Rtr_graph.Graph.t -> Embedding.t -> t
(** Raises [Invalid_argument] if the embedding size differs from the
    node count. *)

val name : t -> string
val graph : t -> Rtr_graph.Graph.t
val embedding : t -> Embedding.t
val crossings : t -> Crossings.t

val pp : Format.formatter -> t -> unit
