(** Shortest-path trees.

    A tree is rooted at a node and oriented either {e away from} the
    root ([From_root]: distances measure root-to-node cost, the phase-2
    view of a recovery initiator computing paths to destinations) or
    {e towards} it ([To_root]: distances measure node-to-root cost, the
    view used to build per-destination routing tables under asymmetric
    link costs).

    The representation is exposed so that hot loops can read the
    parent and distance arrays without an option per node ([Fcp]'s
    tree reuse test, [Route_table]'s rows); consumers must treat values
    of this type as read-only. *)

type direction = From_root | To_root

type t = {
  graph : Graph.t;
  root : Graph.node;
  direction : direction;
  dist : int array;
      (** cost between node and root in the tree's direction; [max_int]
          when unreachable *)
  parent_node : int array;
      (** tree predecessor: previous hop from the root ([From_root]) or
          next hop towards the root ([To_root]); [-1] at the root and
          for unreachable nodes *)
  parent_link : int array;
      (** link to [parent_node]; [-1] where [parent_node] is [-1] *)
}

val direction : t -> direction

val dist : t -> Graph.node -> int
val reached : t -> Graph.node -> bool

val parent_node : t -> Graph.node -> Graph.node
val parent_link : t -> Graph.node -> Graph.link_id

val path : t -> Graph.node -> Path.t option
(** For [From_root], the path from the root to the node; for [To_root],
    the path from the node to the root.  [None] if unreachable. *)

val copy : t -> t
(** Deep copy (fresh arrays).  Turns a tree borrowed from a workspace
    run into an owned one (phase 2 and FCP keep their session trees
    this way). *)
