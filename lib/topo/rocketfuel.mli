(** Parsers for the Rocketfuel dataset formats.

    The paper's topologies come from the Rocketfuel project
    (Sherwood/Bender/Spring, SIGCOMM 2002).  This module reads the two
    published text formats so measured maps can replace the synthetic
    presets:

    - {b weights} files (`weights.intra`): one `<name> <name> <weight>`
      record per directed link, node names being free-form strings
      (typically "city, state").  Both directions usually appear; a
      missing reverse direction inherits the forward weight.
    - {b cch} files (`*.cch`): one node per line,
      [uid @loc [+] [bb] (num_neigh) [&ext] -> <nuid-1> ... =name rn],
      external links (`{-euid}`) being ignored for intra-domain
      routing.

    Rocketfuel publishes no router coordinates, and the paper assigns
    random ones anyway (Sec. IV-A), so both parsers embed the parsed
    graph uniformly at random from a caller-supplied seed — exactly the
    paper's procedure. *)

val of_weights :
  ?name:string -> seed:int -> string -> (Topology.t, string) result
(** Parse `weights.intra`-format content.  Weights are rounded to
    positive ints (Rocketfuel's inferred weights are floats).  A
    malformed record, or a weight that is not a number in (0, 2{^30}]
    ([nan], [inf], negative or huge), is an [Error] naming its line;
    so is an empty, single-node or disconnected map. *)

val load_weights :
  ?name:string -> seed:int -> string -> (Topology.t, string) result
(** Same, from a file path; an unreadable file is an [Error] too. *)

val of_cch : ?name:string -> seed:int -> string -> (Topology.t, string) result
(** Parse `.cch`-format content (unit link costs; backbone and
    customer routers alike; external neighbours dropped), with the same
    [Error]s as [of_weights]. *)

val load_cch : ?name:string -> seed:int -> string -> (Topology.t, string) result
