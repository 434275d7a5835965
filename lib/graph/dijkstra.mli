(** Dijkstra's algorithm over failure views.

    All shortest-path computations in the reproduction go through this
    module, so the experiment harness can count them (the paper's
    "computational overhead" metric is the number of shortest-path
    calculations).  Counting is the caller's concern; see
    [Rtr_sim.Metrics]. *)

(** Reusable scratch arenas for the SPT hot path.

    A workspace bundles the four label arrays and the heap that a
    Dijkstra run needs, so repeated runs on the same domain allocate
    nothing: slots dirtied by one run are recorded on a touched stack
    and lazily reset at the start of the next run (O(touched), not
    O(n)).  [Incremental_spt] borrows the same arena for its repair
    scratch.

    Workspaces are single-domain values; use [get] for the calling
    domain's own arena (created on first use, observable as the
    [spt.ws_alloc] counter — [spt.ws_reuse] counts the allocation-free
    runs).

    {b Borrowing discipline}: an [Spt.t] produced by [spt ~workspace]
    aliases the workspace arrays.  It is valid only until the next
    operation on the same workspace (another [spt ~workspace] run, an
    [Incremental_spt] repair on the same domain, ...).  Copy it with
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
  ?cost:(Graph.link_id -> src:Graph.node -> int) ->
  unit ->
  Spt.t
(** Single-source shortest paths from/towards [root] (default
    [From_root]), visiting only nodes and links live in the view.
    Ties are broken deterministically: the heap orders equal distances
    by node id, and among equal-cost predecessors the smallest node id
    wins, so two runs over the same inputs yield the same tree.

    Without [?workspace] the result owns freshly allocated arrays (and
    the run counts as [spt.from_scratch]).  With [?workspace] the run
    reuses the arena's arrays and heap and the result is {e borrowed} —
    bit-identical to the owned result, but only readable until the next
    workspace operation (see {!Workspace}).

    [cost] overrides the graph's own link costs ([src] is the node the
    link is crossed out of); MRC's restricted-link weights use this.
    Costs must stay positive. *)

val spt_filtered :
  Graph.t ->
  root:Graph.node ->
  ?direction:Spt.direction ->
  ?node_ok:(Graph.node -> bool) ->
  ?link_ok:(Graph.link_id -> bool) ->
  ?cost:(Graph.link_id -> src:Graph.node -> int) ->
  unit ->
  Spt.t
(** @deprecated Closure-pair reference implementation, kept as the
    oracle for the view/closure equivalence suite.  [spt (View.create
    g ~node_ok ~link_ok ())] is bit-for-bit equivalent and faster. *)

val shortest_path :
  View.t -> src:Graph.node -> dst:Graph.node -> Path.t option

val distance : View.t -> src:Graph.node -> dst:Graph.node -> int option
