module Json = Rtr_obs.Json
module Metrics = Rtr_obs.Metrics
module Trace = Rtr_obs.Trace

type config = {
  cases : int;
  seed : int;
  jobs : int;
  oracles : Oracle.t list;
  inject : Oracle.injection option;
  out_dir : string option;
  max_shrink_evals : int;
}

let default =
  {
    cases = 200;
    seed = 42;
    jobs = 1;
    oracles = Oracle.all;
    inject = None;
    out_dir = None;
    max_shrink_evals = 2000;
  }

type counterexample = {
  index : int;
  original : Spec.t;
  shrunk : Spec.t;
  violation : Oracle.violation;
  shrink_evals : int;
  artifact : string option;
}

type outcome = { cases_run : int; failures : counterexample list }

(* Spec [i] draws from an RNG keyed on [(seed, i)], so it is the same
   spec no matter how many cases run or how they are sharded. *)
let spec_rng ~seed ~index =
  Rtr_util.Rng.make (((seed * 1_000_003) + index) lxor 0x5eed)

let generate_spec ~seed ~index =
  let rng = spec_rng ~seed ~index in
  Spec.generate rng ~name:(Printf.sprintf "fuzz-%d-%d" seed index)

let check_with ~inject oracles spec =
  List.fold_left
    (fun acc (o : Oracle.t) ->
      match acc with Some _ -> acc | None -> o.Oracle.run ~inject spec)
    None oracles

let artifact_json ~oracle ?inject ?seed ?index ?violation ~expect spec =
  let base =
    [ ("format", Json.String "rtr-check/1");
      ("oracle", Json.String oracle.Oracle.name) ]
  in
  let opt name f = function Some x -> [ (name, f x) ] | None -> [] in
  Json.Obj
    (base
    @ opt "inject"
        (fun i -> Json.String (Oracle.injection_to_string i))
        inject
    @ opt "seed" (fun s -> Json.Int s) seed
    @ opt "index" (fun i -> Json.Int i) index
    @ [
        ( "expect",
          Json.String
            (match expect with `Violation -> "violation" | `Pass -> "pass") );
      ]
    @ opt "violation" (fun (v : Oracle.violation) -> Json.String v.detail)
        violation
    @ [ ("spec", Spec.to_json spec) ])

(* Shrink [violation] against the one oracle it names, so shrinking
   chases one bug, not whichever oracle trips first on a smaller spec,
   then persist it as [file oracle_name] under [out_dir].  Callers run
   it from the (sequential, ordered) pool consumer, so artifacts are
   identical at any [jobs]. *)
let shrink_and_save config ~evals_h ~index ~original ~file
    (violation : Oracle.violation) =
  let oracle = Option.get (Oracle.find violation.Oracle.oracle) in
  let shrunk, violation, evals =
    Trace.with_ "check.shrink" ~attrs:[ ("case", string_of_int index) ]
    @@ fun () ->
    Shrink.run ~max_evals:config.max_shrink_evals
      ~check:(oracle.Oracle.run ~inject:config.inject)
      original violation
  in
  Metrics.Histogram.observe evals_h (float_of_int evals);
  let artifact =
    Option.map
      (fun dir ->
        let name = file oracle.Oracle.name in
        let json =
          artifact_json ~oracle ?inject:config.inject ~seed:config.seed ~index
            ~violation ~expect:`Violation shrunk
        in
        Rtr_sim.Report.save ~dir ~name (Json.to_string json ^ "\n");
        Filename.concat dir name)
      config.out_dir
  in
  { index; original; shrunk; violation; shrink_evals = evals; artifact }

let run ?(log = fun _ -> ()) config =
  Trace.with_ "check.campaign"
    ~attrs:
      [
        ("cases", string_of_int config.cases);
        ("seed", string_of_int config.seed);
        ("jobs", string_of_int config.jobs);
      ]
  @@ fun () ->
  let cases_c = Metrics.counter "check.cases" in
  let violations_c = Metrics.counter "check.violations" in
  let evals_h = Metrics.histogram "check.shrink.evals" in
  (* Streaming over the bounded pool: indices are produced one at a
     time, each worker regenerates its spec from the (seed, index) key
     and checks it, and verdicts come back in index order — so at most
     a window of specs is ever alive, and the failure list (hence the
     log, the artifacts, and the [outcome]) is identical at any [jobs]
     or campaign size. *)
  let next_index = ref 0 in
  let producer () =
    if !next_index >= config.cases then None
    else begin
      let index = !next_index in
      incr next_index;
      Some index
    end
  in
  let check index =
    check_with ~inject:config.inject config.oracles
      (generate_spec ~seed:config.seed ~index)
  in
  let failures = ref [] in
  let consumer index verdict =
    match verdict with
    | None -> ()
    | Some (violation : Oracle.violation) ->
        Metrics.Counter.incr violations_c;
        log
          (Printf.sprintf "case %d: %s violated (%s); shrinking..." index
             violation.Oracle.oracle violation.Oracle.detail);
        (* The original is one regeneration away — cheaper than
           keeping every spec alive for the rare failure. *)
        let c =
          shrink_and_save config ~evals_h ~index
            ~original:(generate_spec ~seed:config.seed ~index)
            ~file:(fun o -> Printf.sprintf "counterexample_%s_%d.json" o index)
            violation
        in
        log
          (Printf.sprintf
             "case %d: shrunk to %d routers / %d links in %d evaluations"
             index c.shrunk.Spec.n
             (List.length c.shrunk.Spec.edges)
             c.shrink_evals);
        failures := c :: !failures
  in
  let consumed =
    Rtr_sim.Parallel.stream ~jobs:config.jobs check ~producer ~consumer ()
  in
  Metrics.Counter.add cases_c consumed;
  { cases_run = consumed; failures = List.rev !failures }

(* --- episode campaigns: the theorem-survival matrix ------------------ *)

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
  stretch_mean : float;
  stretch_max : float;
  thm3 : thm_cell;
  thm2_artifact : string option;
}

let episode_spec ~seed ~kind ~index =
  let module E = Oracle.Episode in
  (* Same (seed, index) keying discipline as [generate_spec], salted by
     kind so each matrix row draws an independent population. *)
  let salt =
    match kind with
    | E.Static -> 0
    | E.Cascading -> 1
    | E.Transient -> 2
    | E.Moving -> 3
  in
  let rng =
    Rtr_util.Rng.make (((((seed * 5) + salt) * 1_000_003) + index) lxor 0x5eed)
  in
  let name =
    Printf.sprintf "episode-%s-%d-%d" (E.kind_to_string kind) seed index
  in
  match kind with
  | E.Static -> Spec.generate rng ~name
  | E.Cascading -> Spec.generate_episodes rng ~kind:`Cascading ~name
  | E.Transient -> Spec.generate_episodes rng ~kind:`Transient ~name
  | E.Moving -> Spec.generate_episodes rng ~kind:`Moving ~name

let survival_json ~seed ~cases rows =
  let cell c =
    Json.Obj
      [ ("checks", Json.Int c.checks); ("violations", Json.Int c.violations) ]
  in
  let row r =
    Json.Obj
      [
        ("kind", Json.String (Oracle.Episode.kind_to_string r.row_kind));
        ("specs", Json.Int r.specs);
        ("transitions", Json.Int r.transitions);
        ("sessions", Json.Int r.sessions);
        ("thm1", cell r.thm1);
        ( "thm2",
          Json.Obj
            [
              ("checks", Json.Int r.thm2.checks);
              ("violations", Json.Int r.thm2.violations);
              ("delivered_suboptimal", Json.Int r.delivered_suboptimal);
              ("failed_recoverable", Json.Int r.failed_recoverable);
              ("false_unreachable", Json.Int r.false_unreachable);
              ( "stretch",
                Json.Obj
                  [
                    ("count", Json.Int r.delivered_suboptimal);
                    ("mean", Json.Float r.stretch_mean);
                    ("max", Json.Float r.stretch_max);
                  ] );
            ] );
        ("thm3", cell r.thm3);
      ]
  in
  Json.Obj
    [
      ("format", Json.String "rtr-survival/1");
      ("seed", Json.Int seed);
      ("cases_per_kind", Json.Int cases);
      ("rows", Json.Arr (List.map row rows));
    ]

let run_episodes ?(log = fun _ -> ()) config ~kinds =
  let module E = Oracle.Episode in
  Trace.with_ "check.episodes"
    ~attrs:
      [
        ("cases", string_of_int config.cases);
        ("seed", string_of_int config.seed);
        ("jobs", string_of_int config.jobs);
      ]
  @@ fun () ->
  let evals_h = Metrics.histogram "check.shrink.evals" in
  let items =
    List.concat_map
      (fun k -> List.init config.cases (fun i -> (k, i)))
      kinds
    |> ref
  in
  let producer () =
    match !items with
    | [] -> None
    | x :: tl ->
        items := tl;
        Some x
  in
  let evaluate (kind, index) =
    let spec = episode_spec ~seed:config.seed ~kind ~index in
    let stats = E.measure ~inject:config.inject spec in
    let topo, epochs = Spec.timeline spec in
    let thm3 =
      E.single_link ~oracle:"episode_single_link" topo
        (snd (List.hd (List.rev epochs)))
    in
    (kind, index, stats, thm3)
  in
  let failures = ref [] and measured = ref [] in
  (* Each kind's first Theorem-2 exemplar, when persisting. *)
  let exemplars = Hashtbl.create 4 in
  let shrink kind index prefix v =
    shrink_and_save config ~evals_h ~index
      ~original:(episode_spec ~seed:config.seed ~kind ~index)
      ~file:(fun o ->
        Printf.sprintf "%s_%s_%s_%d.json" prefix o (E.kind_to_string kind)
          index)
      v
  in
  let consumer _ (kind, index, (stats : E.stats), thm3) =
    measured := (kind, stats, thm3) :: !measured;
    (* Theorems 1 and 3 must survive every relaxation: their violations
       are campaign failures, shrunk and persisted like any other
       counterexample. *)
    List.iter
      (fun (v : Oracle.violation) ->
        log
          (Printf.sprintf "%s case %d: %s (%s); shrinking..."
             (E.kind_to_string kind) index v.Oracle.oracle v.Oracle.detail);
        failures := shrink kind index "counterexample" v :: !failures)
      (Option.to_list stats.E.thm1 @ Option.to_list (snd thm3));
    (* Theorem-2 relaxation violations are the measurement, not a bug:
       they fill the matrix, and the first one per kind is shrunk into
       an [expect = violation] exemplar artifact when persisting. *)
    match stats.E.first_thm2 with
    | Some v
      when kind <> E.Static && config.out_dir <> None
           && not (Hashtbl.mem exemplars kind) ->
        log
          (Printf.sprintf
             "%s case %d: thm2 relaxation violated as expected (%s); \
              shrinking the exemplar..."
             (E.kind_to_string kind) index v.Oracle.detail);
        Hashtbl.replace exemplars kind (shrink kind index "episode" v).artifact
    | _ -> ()
  in
  let consumed =
    Rtr_sim.Parallel.stream ~jobs:config.jobs evaluate ~producer ~consumer ()
  in
  (* Rows fold the per-spec results in consumption order, so sums (the
     float stretch sum included) are identical at any [jobs]. *)
  let row kind =
    let mine =
      List.filter_map
        (fun (k, stats, thm3) -> if k = kind then Some (stats, thm3) else None)
        (List.rev !measured)
    in
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 mine in
    let fold f =
      List.fold_left (fun acc ((s : E.stats), _) -> f acc s) 0. mine
    in
    let checks = sum (fun (s, _) -> s.E.checks) in
    let subopt = sum (fun (s, _) -> s.E.delivered_suboptimal) in
    {
      row_kind = kind;
      specs = List.length mine;
      transitions = sum (fun (s, _) -> s.E.transitions);
      sessions = sum (fun (s, _) -> s.E.sessions);
      thm1 =
        {
          checks;
          violations = sum (fun (s, _) -> Bool.to_int (s.E.thm1 <> None));
        };
      thm2 = { checks; violations = sum (fun (s, _) -> s.E.thm2_violations) };
      delivered_suboptimal = subopt;
      failed_recoverable = sum (fun (s, _) -> s.E.failed_recoverable);
      false_unreachable = sum (fun (s, _) -> s.E.false_unreachable);
      stretch_mean =
        (if subopt = 0 then 0.
         else
           fold (fun acc s -> acc +. s.E.stretch_sum) /. float_of_int subopt);
      stretch_max = fold (fun acc s -> Float.max acc s.E.stretch_max);
      thm3 =
        {
          checks = sum (fun (_, (c, _)) -> c);
          violations = sum (fun (_, (_, v)) -> Bool.to_int (v <> None));
        };
      thm2_artifact = Option.join (Hashtbl.find_opt exemplars kind);
    }
  in
  let rows = List.map row kinds in
  (match config.out_dir with
  | None -> ()
  | Some dir ->
      let json = survival_json ~seed:config.seed ~cases:config.cases rows in
      Rtr_sim.Report.save ~dir ~name:"survival_matrix.json"
        (Json.to_string json ^ "\n"));
  ({ cases_run = consumed; failures = List.rev !failures }, rows)

let pp_matrix ppf rows =
  Format.fprintf ppf "%-10s %6s %6s  %12s %14s %12s  %8s %8s@."
    "kind" "specs" "sess" "thm1 v/chk" "thm2 v/chk" "thm3 v/chk"
    "stretch~" "stretch^";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %6d %6d  %12s %14s %12s  %8.3f %8.3f@."
        (Oracle.Episode.kind_to_string r.row_kind)
        r.specs r.sessions
        (Printf.sprintf "%d/%d" r.thm1.violations r.thm1.checks)
        (Printf.sprintf "%d/%d" r.thm2.violations r.thm2.checks)
        (Printf.sprintf "%d/%d" r.thm3.violations r.thm3.checks)
        r.stretch_mean r.stretch_max;
      if r.thm2.violations > 0 then
        Format.fprintf ppf
          "%-10s   of which suboptimal %d, dropped-recoverable %d, \
           false-unreachable %d@."
          "" r.delivered_suboptimal r.failed_recoverable r.false_unreachable)
    rows

(* --- replay --------------------------------------------------------- *)

type replay_result =
  | Matched of Oracle.violation option
  | Mismatched of { expected : string; got : Oracle.violation option }

let ( let* ) = Result.bind

let replay json =
  (match Json.member "format" json with
  | Some (Json.String "rtr-check/1") -> Ok ()
  | Some (Json.String f) -> Error ("unsupported artifact format " ^ f)
  | _ -> Error "missing artifact format")
  |> fun format_ok ->
  let* () = format_ok in
  let* oracle =
    match Json.member "oracle" json with
    | Some (Json.String name) -> (
        match Oracle.find name with
        | Some o -> Ok o
        | None -> Error ("unknown oracle " ^ name))
    | _ -> Error "missing oracle name"
  in
  let* inject =
    match Json.member "inject" json with
    | None -> Ok None
    | Some (Json.String s) -> (
        match Oracle.injection_of_string s with
        | Some i -> Ok (Some i)
        | None -> Error ("unknown injection " ^ s))
    | Some _ -> Error "bad inject field"
  in
  let* expect =
    match Json.member "expect" json with
    | Some (Json.String "violation") -> Ok `Violation
    | Some (Json.String "pass") -> Ok `Pass
    | None ->
        (* Older artifacts: the presence of a recorded violation is the
           expectation. *)
        Ok
          (match Json.member "violation" json with
          | Some _ -> `Violation
          | None -> `Pass)
    | Some _ -> Error "bad expect field"
  in
  let* spec =
    match Json.member "spec" json with
    | Some s -> Spec.of_json s
    | None -> Error "missing spec"
  in
  let got = oracle.Oracle.run ~inject spec in
  let matched =
    match (expect, got) with
    | `Violation, Some _ | `Pass, None -> true
    | _ -> false
  in
  if matched then Ok (Matched got)
  else
    Ok
      (Mismatched
         {
           expected =
             (match expect with `Violation -> "violation" | `Pass -> "pass");
           got;
         })

let load_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Json.parse contents
  | exception Sys_error msg -> Error msg
