(** The fuzzing campaign: generate, evaluate, shrink, persist.

    Spec generation is keyed on [(seed, index)] and the shrinking of
    each counterexample is sequential, so a campaign's outcome —
    including every artifact byte — depends only on [(cases, seed,
    oracles, inject)], never on [jobs].  Oracle evaluation itself is
    streamed through {!Rtr_sim.Parallel.stream}: specs are generated on
    the calling domain, evaluated on the workers, and consumed (shrunk,
    persisted) in index order.

    Instrumented under the [check.*] metric namespace
    ([check.cases], [check.violations], [check.shrink.evals]) and the
    [check.campaign]/[check.shrink] trace spans. *)

type config = {
  cases : int;  (** how many random specs to generate *)
  seed : int;  (** campaign seed; spec [i] derives from [(seed, i)] *)
  jobs : int;  (** domains for oracle evaluation *)
  oracles : Oracle.t list;  (** run in order, first violation wins *)
  inject : Oracle.injection option;
      (** optional deliberate bug, for testing the fuzzer itself *)
  out_dir : string option;  (** where to write counterexample artifacts *)
  max_shrink_evals : int;
}

val default : config
(** 200 cases, seed 42, 1 job, every oracle, no injection, no
    artifacts, 2000 shrink evaluations. *)

type counterexample = {
  index : int;  (** which generated case failed *)
  original : Spec.t;
  shrunk : Spec.t;
  violation : Oracle.violation;  (** as exhibited by [shrunk] *)
  shrink_evals : int;
  artifact : string option;  (** path written, when [out_dir] is set *)
}

type outcome = { cases_run : int; failures : counterexample list }

val run : ?log:(string -> unit) -> config -> outcome
(** [log] receives one-line progress messages (default: none). *)

(** {1 Repro artifacts}

    An artifact is a JSON object with [format = "rtr-check/1"], the
    oracle name, the campaign seed/index it came from, the optional
    injection, an [expect] field (["violation"] or ["pass"]), and the
    shrunk spec.  Corpus files use [expect = "pass"]: they are
    regression scenarios that must stay green. *)

val artifact_json :
  oracle:Oracle.t ->
  ?inject:Oracle.injection ->
  ?seed:int ->
  ?index:int ->
  ?violation:Oracle.violation ->
  expect:[ `Violation | `Pass ] ->
  Spec.t ->
  Rtr_obs.Json.t

(** {1 Episode campaigns: the theorem-survival matrix}

    An episode campaign generates [cases] timeline specs {e per kind},
    re-evaluates the three theorems across every timeline transition
    ({!Oracle.Episode}), and folds the results into one matrix row per
    kind.  Theorem 1 and Theorem 3 violations are campaign failures —
    shrunk and persisted like static counterexamples.  Theorem-2
    relaxation violations are the {e measurement}: they fill the row
    (split by signature, with stretch statistics over suboptimal
    deliveries), and when [out_dir] is set the first one per kind is
    shrunk into an [expect = "violation"] exemplar artifact.  The
    matrix itself is saved as [survival_matrix.json]
    ([format = "rtr-survival/1"]).  Like {!run}, the outcome depends
    only on [(cases, seed, kinds, inject)], never on [jobs]. *)

type thm_cell = { checks : int; violations : int }

type survival_row = {
  row_kind : Oracle.Episode.kind;
  specs : int;
  transitions : int;
  sessions : int;
  thm1 : thm_cell;
  thm2 : thm_cell;
  delivered_suboptimal : int;
  failed_recoverable : int;
  false_unreachable : int;
  stretch_mean : float;  (** mean cost/optimal over suboptimal deliveries *)
  stretch_max : float;
  thm3 : thm_cell;
  thm2_artifact : string option;
      (** the kind's shrunk exemplar, when one was persisted *)
}

val run_episodes :
  ?log:(string -> unit) ->
  config ->
  kinds:Oracle.Episode.kind list ->
  outcome * survival_row list
(** [config.oracles] is ignored (the episode evaluation is fixed);
    [config.cases] counts per kind; rows come back in [kinds] order. *)

val survival_json :
  seed:int -> cases:int -> survival_row list -> Rtr_obs.Json.t

val pp_matrix : Format.formatter -> survival_row list -> unit
(** The human-readable matrix, one kind per line. *)

type replay_result =
  | Matched of Oracle.violation option
      (** observed behaviour agrees with the artifact's [expect] *)
  | Mismatched of { expected : string; got : Oracle.violation option }

val replay : Rtr_obs.Json.t -> (replay_result, string) result
(** Re-run an artifact's oracle (with its recorded injection) on its
    spec and compare against [expect].  [Error] means the artifact
    itself is malformed. *)

val load_file : string -> (Rtr_obs.Json.t, string) result
(** Read and parse one artifact file. *)
