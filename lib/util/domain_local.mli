(** Per-domain slots (thin wrapper over [Domain.DLS]).

    Each domain that touches the slot gets its own value, created on
    first access by the [make] initialiser.  This is the idiom behind
    the reusable scratch workspaces ([Rtr_graph.Dijkstra.Workspace])
    and the metrics cells: values are never shared across domains, so
    no locking is needed, and [Rtr_util.Pool] workers each lazily build
    their own copy.

    Note that [Pool] spawns fresh domains per [map] call, so a slot's
    value lives for one pool run on worker domains (and for the whole
    process on the main domain). *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** [make init] declares a slot; [init] runs once per domain, on that
    domain's first [get]. *)

val get : 'a t -> 'a
