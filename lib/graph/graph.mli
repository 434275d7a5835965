(** The network graph: routers, links, asymmetric costs.

    The paper models the network as an undirected graph whose links
    carry a cost per direction (c_ij may differ from c_ji, Sec. II-A).
    Nodes are dense ints [0 .. n-1]; links carry dense ids
    [0 .. m-1] so that per-link state (failed? crossing sets, header
    contents) lives in flat arrays.

    A graph is immutable after [build]; transient conditions (failures)
    are expressed by the [node_ok]/[link_ok] filters that every
    algorithm in this library accepts, so one graph value serves all
    scenarios. *)

type node = int
type link_id = int

type t

(** {1 Construction} *)

val build : n:int -> edges:(node * node) list -> t
(** [build ~n ~edges] makes a graph with unit cost in both directions on
    every link.  Self loops and duplicate edges (in either order) raise
    [Invalid_argument], as do endpoints outside [0..n-1]. *)

val build_weighted : n:int -> edges:(node * node * int * int) list -> t
(** [(u, v, c_uv, c_vu)] per link; costs must be positive. *)

(** {1 Sizes} *)

val n_nodes : t -> int
val n_links : t -> int

(** {1 Links} *)

val endpoints : t -> link_id -> node * node
(** Endpoints with the smaller node first. *)

val other_end : t -> link_id -> node -> node
(** The endpoint that is not the given node.  Raises [Invalid_argument]
    if the node is not an endpoint of the link. *)

val cost : t -> link_id -> src:node -> int
(** Cost of traversing the link out of [src]. *)

val max_cost : t -> int
(** Largest directional link cost in the graph (1 for a graph with no
    links).  Every finite shortest-path distance is at most
    [max_cost g * (n_nodes g - 1)] — the bound behind Dijkstra's
    bucket-queue selection. *)

val find_link : t -> node -> node -> link_id option
(** The link between two nodes, if any. *)

(** {1 Adjacency} *)

val degree : t -> node -> int

val neighbors : t -> node -> (node * link_id) array
(** Freshly allocated on each call (adjacency is stored in CSR form);
    prefer [iter_neighbors]/[fold_neighbors] on hot paths. *)

val iter_neighbors : t -> node -> (node -> link_id -> unit) -> unit

val fold_neighbors : t -> node -> init:'a -> f:('a -> node -> link_id -> 'a) -> 'a

(** {1 CSR adjacency}

    The raw compressed-sparse-row arrays behind the adjacency: the
    neighbours of [u] are [(adj_targets g).(i), (adj_links g).(i)] for
    [i] in [(adj_offsets g).(u) .. (adj_offsets g).(u+1) - 1], sorted
    ascending by neighbour id, and that arc's two directional costs sit
    at the same index [i] of [adj_out_costs] and [adj_in_costs].  The
    arrays are physically shared with the graph — callers must not
    mutate them.  Exposed so [View] and [Dijkstra] can run their masked
    loops cache-linearly, without per-neighbour tuples, closures or a
    per-arc [cost] call. *)

val adj_offsets : t -> int array
(** Length [n_nodes g + 1]. *)

val adj_targets : t -> int array
(** Length [2 * n_links g]. *)

val adj_links : t -> int array
(** Length [2 * n_links g]. *)

val adj_out_costs : t -> int array
(** Per arc [i] of [u]'s segment, [cost g (adj_links g).(i) ~src:u]:
    the cost of leaving [u] towards [(adj_targets g).(i)] — what a
    [From_root] tree pays to grow from [u].  Length [2 * n_links g]. *)

val adj_in_costs : t -> int array
(** Per arc [i] of [u]'s segment, the cost of the reverse crossing,
    from [(adj_targets g).(i)] into [u] — what a [To_root] tree pays
    to grow from [u].  Length [2 * n_links g]. *)

val iter_links : t -> (link_id -> node -> node -> unit) -> unit

val fold_links : t -> init:'a -> f:('a -> link_id -> node -> node -> 'a) -> 'a

(** {1 Link-id sets}

    Small helpers over [link_id] collections used all over the recovery
    protocols (failed-link sets, cross-link sets). *)

val link_name : t -> link_id -> string
(** ["e4,11"]-style name, as in the paper's figures. *)

val pp : Format.formatter -> t -> unit
(** One-line summary: node and link counts. *)
