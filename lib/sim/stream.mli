(** On-disk stream codec for the staged experiment pipeline.

    Stage boundaries are framed JSONL files: a {e scenario stream}
    (what [generate] emits) is one self-describing header line followed
    by one scenario record per line; a {e result shard} (what
    [evaluate] appends, see {!Shard_store}) reuses the same record
    codec for its result rows.

    The codec serialises {e only exact values} — node/link ids, integer
    path costs, booleans — and reconstructs every derived float
    ([Runner.result] stretches) with the same
    [Runner.stretch_of_cost] the live evaluation used, so a reduce
    over decoded records is bit-identical to an in-process run.  Link
    ids are stable because [Isp.load] is deterministic per preset; the
    failure {e sets} are serialised (not the area), and rebuilt with
    [Damage.of_failed], which yields the same sets [Damage.apply]
    produced.  The area centre/radius ride along for inspection only —
    nothing downstream reads them, so their float round-trip need not
    be exact. *)

val format_stream : string
(** ["rtr-stream/1"], the scenario-stream header format tag. *)

val format_shard : string
(** ["rtr-shard/1"], the result-shard header format tag. *)

val format_footer : string
(** ["rtr-shard-footer/1"], the shard checkpoint-footer format tag. *)

type topo_stat = {
  as_name : string;
  areas : int;  (** failure areas drawn, including case-less ones *)
  rec_cases : int;  (** recoverable cases kept (quota-filtered) *)
  irr_cases : int;  (** irrecoverable cases kept *)
  records : int;  (** scenario records emitted for this topology *)
}

type header = {
  seed : int;
  mrc_k : int option;
  rec_quota : int;
  irr_quota : int;
  topos : topo_stat list;
      (** in generation order; topology [i]'s records occupy the
          contiguous seq range starting at the sum of earlier [records] *)
  count : int;  (** total scenario records *)
}

type scenario = {
  seq : int;  (** global submission order, 0-based, dense *)
  topo : int;  (** index into [header.topos] *)
  area : float * float * float;  (** (cx, cy, r), informational only *)
  failed_nodes : int list;
  failed_links : int list;
  cases : Scenario.case list;
}

type result = { rseq : int; rtopo : int; results : Runner.result list }
(** One evaluated scenario record; [results] preserves case order, so
    the reducer's partition matches the in-memory path's. *)

val of_scenario : seq:int -> topo:int -> Scenario.t -> scenario
val to_scenario :
  topo:Rtr_topo.Topology.t -> table:Rtr_routing.Route_table.t -> scenario ->
  Scenario.t
(** [to_scenario] rebuilds exactly what [Runner.run_scenario] reads:
    the damage from the serialised failure sets, the cases verbatim.
    Both the file path and the in-memory [Experiments.collect] path
    evaluate scenarios rebuilt by this function, so they run identical
    inputs by construction. *)

val header_line : header -> string

val parse_header : string -> (header, string) Stdlib.result
(** Accepts only a {!format_stream} header; any other format tag, and
    an [mrc_k] below 2, is an [Error]. *)

val scenario_line : scenario -> string
val parse_scenario : string -> (scenario, string) Stdlib.result
val result_line : result -> string

val parse_result : string -> (result, string) Stdlib.result
(** Read a result line in place, building no JSON tree.  It takes
    exactly the lines that [Json.parse] takes and whose value is an
    object with integer members [seq] and [topo] and an array member
    [r] of result rows.  Members may come in any order with whitespace
    anywhere; the first occurrence of a repeated key counts, and
    repeats and unknown members are skipped but must be valid JSON.
    A row is a 16-item array in {!result_line}'s order, its case a
    5-item array [[initiator, trigger, dst, kind, shortest_after]] with
    kind 0 or 1; an integer slot takes only what [Json.parse] reads as
    an [Int] ([1.0], [1e0] and out-of-range literals are errors), and
    only the three cost slots and [shortest_after] take [null]. *)

val parse_shard_record : string -> (result, string) Stdlib.result
(** {!parse_result}, except that a line whose first [format] member is
    the string {!format_footer} is an [Error] even when it would decode:
    in a shard such a line is a footer, which {!Shard_store} reads as
    one. *)

val write : string -> header -> scenario list -> unit
(** Write a scenario stream: header line then records.  Counts
    [stream.scenarios_out]. *)

val open_reader :
  string ->
  ( header * (unit -> (scenario, string) Stdlib.result option),
    string )
  Stdlib.result
(** Open a scenario stream: the parsed header and a pull function that
    yields records in file order, closing the file at exhaustion.
    Counts [stream.scenarios_in] per record.  A missing file or a bad
    header is an [Error]; a malformed record is pulled as [Some (Error
    _)], after which the file is closed and the pull yields [None]. *)

val read_header : string -> (header, string) Stdlib.result
(** Just the header (for [reduce], which reads shards, not the
    stream); [Error] as for {!open_reader}. *)
