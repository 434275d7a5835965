(** Dijkstra's algorithm over failure views.

    All shortest-path computations in the reproduction go through this
    module, so the experiment harness can count them (the paper's
    "computational overhead" metric is the number of shortest-path
    calculations).  Each run counts itself: [spt.from_scratch] or the
    workspace's [spt.ws_reuse]/[spt.ws_alloc], the queue choice in
    [pqueue.dial_selected]/[pqueue.heap_selected], and its queue work
    in the [pqueue.push]/[pqueue.pop] family (see [Pqueue.publish]);
    per-protocol calculation counts are kept by the protocols. *)

(** Reusable scratch arenas for the SPT hot path.

    A workspace bundles the four label arrays and the heap that a
    Dijkstra run needs, so repeated runs on the same domain allocate
    nothing: slots dirtied by one run are recorded on a touched stack
    and lazily reset at the start of the next run (O(touched), not
    O(n)).

    Workspaces are single-domain values; use [get] for the calling
    domain's own arena (created on first use, observable as the
    [spt.ws_alloc] counter — [spt.ws_reuse] counts the allocation-free
    runs).

    {b Borrowing discipline}: an [Spt.t] produced by [spt ~workspace]
    aliases the workspace arrays.  It is valid only until the next
    [spt ~workspace] run on the same workspace.  Copy it with
    [Spt.copy] if it must outlive that, or call [spt] without
    [?workspace] for an owned tree. *)
module Workspace : sig
  type t

  val create : unit -> t
  (** A fresh arena, e.g. for tests that pin reuse behaviour. *)

  val get : unit -> t
  (** The calling domain's arena ([Domain.DLS]-backed). *)
end

val spt :
  ?workspace:Workspace.t ->
  View.t ->
  root:Graph.node ->
  ?direction:Spt.direction ->
  unit ->
  Spt.t
(** Single-source shortest paths from/towards [root] (default
    [From_root]), visiting only nodes and links live in the view.
    The tree is canonical: each reached node's parent is its
    smallest-id live neighbour on a shortest path (the predecessor, or
    for [To_root] the next hop).  This holds because costs are
    positive, so every such neighbour is settled, and relaxes the node,
    before the node itself is settled; equal-cost relaxations keep the
    smaller id.  [Route_table] takes its next hops straight from
    [To_root] trees on this contract, and [Rtr_check.Reference] builds
    the same tree by definition.

    Without [?workspace] the run gets a fresh arena of its own, so the
    result owns its arrays (the run counts as [spt.from_scratch], not
    as [spt.ws_alloc]).  With [?workspace] the run reuses the arena's
    arrays and heap and the result is {e borrowed} — bit-identical to
    the owned result, but only readable until the next workspace
    operation (see {!Workspace}).  Either way the graph's cost bound
    selects the queue discipline (see [Pqueue]). *)

val distance : View.t -> src:Graph.node -> dst:Graph.node -> int option
