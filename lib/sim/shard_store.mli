(** Append-only result shards with a checkpoint footer.

    A shard file holds the evaluated results of the scenario records
    whose [seq mod shards = shard], in seq order: one framing header
    line, one result record per line (each flushed as soon as it is
    complete — the commit), and a footer line marking the shard
    complete.  A killed evaluation leaves a file without a footer,
    possibly ending in a torn (unterminated or unparseable) line;
    {!open_writer} with [resume:true] drops the torn tail, keeps every
    committed record, and the evaluation re-runs only what is missing —
    the reduced output is byte-identical to an uninterrupted run
    because records are keyed by seq, not by when they were written.

    A line is a footer iff its first [format] member names the footer
    format.  {!open_writer} ({!Stream.parse_shard_record}) and {!load}
    ({!Stream.parse_result}) read every record line in place, building
    no JSON tree; only the header, the footer and a line that fails as
    a record (which {!open_writer} then tries as a footer) go through
    [Json.parse].  A torn tail is never read.

    Counters: [checkpoint.commits] per appended record,
    [checkpoint.resumed] per resumed partial shard,
    [checkpoint.torn_tail] per truncation; [stream.results_in] /
    [stream.shards_read] on {!load}; [shard_store.lines_parsed] per
    line decoded, however many scans it takes (so resuming a shard with
    N complete records and a torn tail counts 1 + N). *)

type meta = { shard : int; shards : int; count : int }
(** [count] is the total record count of the {e stream} (all shards),
    echoed for cross-checking at reduce time. *)

type writer

type opened =
  | Complete  (** the file already carries a complete footer *)
  | Writer of writer * (int -> bool)
      (** the predicate answers "is this seq already committed?" —
          feed it to the evaluate stage's record filter *)

val open_writer :
  path:string -> resume:bool -> shard:int -> shards:int -> count:int -> opened
(** Fresh mode ([resume:false] or no file yet) truncates and writes the
    header.  Resume mode re-reads the file, validates the header
    against the expected shard coordinates (raising [Failure] on
    mismatch), truncates any torn tail, and appends.  A resumed shard
    whose footer is already present returns [Complete]. *)

val records : writer -> int
(** Committed records so far, including those kept by a resume. *)

val append : writer -> Stream.result -> unit
(** Write and flush one record — the durability point. *)

val finish : writer -> mrc:(string * int) list -> unit
(** Write the footer (recording the MRC configuration counts of every
    topology this evaluation built) and close. *)

type loaded = {
  meta : meta;
  results : Stream.result list;  (** in file (= seq) order *)
  mrc : (string * int) list;
}

val load : string -> loaded
(** Read a complete shard for the reduce stage.  Raises [Failure] on a
    missing/inconsistent footer, a torn tail, or a record that does not
    belong to the shard. *)
