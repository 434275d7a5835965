module Json = Rtr_obs.Json
module Metrics = Rtr_obs.Metrics
module Graph = Rtr_graph.Graph
module Area = Rtr_failure.Area
module Damage = Rtr_failure.Damage
module Circle = Rtr_geom.Circle
module Point = Rtr_geom.Point

let c_scenarios_out = Metrics.counter "stream.scenarios_out"
let c_scenarios_in = Metrics.counter "stream.scenarios_in"

let format_stream = "rtr-stream/1"
let format_stream_v2 = "rtr-stream/2"
let format_shard = "rtr-shard/1"
let format_footer = "rtr-shard-footer/1"

type topo_stat = {
  as_name : string;
  areas : int;
  rec_cases : int;
  irr_cases : int;
  records : int;
}

type header = {
  seed : int;
  mrc_k : int option;
  rec_quota : int;
  irr_quota : int;
  topos : topo_stat list;
  count : int;
}

type scenario = {
  seq : int;
  topo : int;
  area : float * float * float;
  failed_nodes : int list;
  failed_links : int list;
  episodes : Scenario.episode list;
  cases : Scenario.case list;
}

type result = { rseq : int; rtopo : int; results : Runner.result list }

(* --- scenario <-> record ------------------------------------------- *)

let of_scenario ~seq ~topo:ti ?(episodes = []) (s : Scenario.t) =
  let area =
    match s.Scenario.area with
    | Area.Disc c ->
        (c.Circle.center.Point.x, c.Circle.center.Point.y, c.Circle.radius)
    | Area.Poly _ -> (0.0, 0.0, 0.0)
  in
  {
    seq;
    topo = ti;
    area;
    failed_nodes = Damage.failed_nodes s.Scenario.damage;
    failed_links = Damage.failed_links s.Scenario.damage;
    episodes;
    cases = s.Scenario.cases;
  }

let to_scenario ~topo ~table (r : scenario) =
  let g = Rtr_topo.Topology.graph topo in
  let cx, cy, radius = r.area in
  {
    Scenario.topo;
    table;
    area = Area.disc ~center:(Point.make cx cy) ~radius;
    damage = Damage.of_failed g ~nodes:r.failed_nodes ~links:r.failed_links;
    cases = r.cases;
  }

(* --- JSON codec ----------------------------------------------------- *)

let ( let* ) = Result.bind
let req what = function Some x -> Ok x | None -> Error ("bad " ^ what)
let as_int = function Json.Int i -> Some i | _ -> None

let as_float = function
  | Json.Float x -> Some x
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

let as_opt_int = function
  | Json.Null -> Some None
  | Json.Int i -> Some (Some i)
  | _ -> None

let all_opt f xs =
  List.fold_right
    (fun x acc ->
      match (f x, acc) with Some y, Some ys -> Some (y :: ys) | _ -> None)
    xs (Some [])

let int_list xs = Json.Arr (List.map (fun i -> Json.Int i) xs)
let opt_int = function Some i -> Json.Int i | None -> Json.Null

let member_int k j = req k (Option.bind (Json.member k j) as_int)

let topo_stat_to_json s =
  Json.Obj
    [
      ("as", Json.String s.as_name);
      ("areas", Json.Int s.areas);
      ("rec", Json.Int s.rec_cases);
      ("irr", Json.Int s.irr_cases);
      ("records", Json.Int s.records);
    ]

let topo_stat_of_json j =
  let* as_name =
    req "topo.as"
      (match Json.member "as" j with Some (Json.String s) -> Some s | _ -> None)
  in
  let* areas = member_int "areas" j in
  let* rec_cases = member_int "rec" j in
  let* irr_cases = member_int "irr" j in
  let* records = member_int "records" j in
  Ok { as_name; areas; rec_cases; irr_cases; records }

let header_line ?(format = format_stream) h =
  Json.to_string
    (Json.Obj
       [
         ("format", Json.String format);
         ("seed", Json.Int h.seed);
         ("mrc_k", opt_int h.mrc_k);
         ("rec_quota", Json.Int h.rec_quota);
         ("irr_quota", Json.Int h.irr_quota);
         ("count", Json.Int h.count);
         ("topos", Json.Arr (List.map topo_stat_to_json h.topos));
       ])

let parse_header line =
  let* j = Json.parse line in
  let* () =
    (* v2 streams only add the optional per-record "ep" field; one
       parser reads both. *)
    match Json.member "format" j with
    | Some (Json.String f) when f = format_stream || f = format_stream_v2 ->
        Ok ()
    | _ -> Error ("stream header is not " ^ format_stream)
  in
  let* seed = member_int "seed" j in
  let* mrc_k = req "mrc_k" (Option.bind (Json.member "mrc_k" j) as_opt_int) in
  let* () =
    match mrc_k with
    | Some k when k < 2 -> Error "bad mrc_k (MRC needs at least 2 configs)"
    | _ -> Ok ()
  in
  let* rec_quota = member_int "rec_quota" j in
  let* irr_quota = member_int "irr_quota" j in
  let* count = member_int "count" j in
  let* topos =
    match Json.member "topos" j with
    | Some (Json.Arr xs) ->
        List.fold_right
          (fun x acc ->
            let* acc = acc in
            let* s = topo_stat_of_json x in
            Ok (s :: acc))
          xs (Ok [])
    | _ -> Error "bad topos"
  in
  Ok { seed; mrc_k; rec_quota; irr_quota; topos; count }

let kind_to_int = function
  | Scenario.Recoverable -> 0
  | Scenario.Irrecoverable -> 1

let kind_of_int = function
  | 0 -> Some Scenario.Recoverable
  | 1 -> Some Scenario.Irrecoverable
  | _ -> None

let case_to_json (c : Scenario.case) =
  Json.Arr
    [
      Json.Int c.Scenario.initiator;
      Json.Int c.Scenario.trigger;
      Json.Int c.Scenario.dst;
      Json.Int (kind_to_int c.Scenario.kind);
      opt_int c.Scenario.shortest_after;
    ]

let case_of_json = function
  | Json.Arr [ Json.Int initiator; Json.Int trigger; Json.Int dst; Json.Int k; sa ]
    -> (
      match (kind_of_int k, as_opt_int sa) with
      | Some kind, Some shortest_after ->
          Some { Scenario.initiator; trigger; dst; kind; shortest_after }
      | _ -> None)
  | _ -> None

(* Positional and integer-only, like a case row:
   [at_cs, fail_nodes, fail_links, restore_nodes, restore_links]. *)
let episode_to_json (e : Scenario.episode) =
  Json.Arr
    [
      Json.Int e.Scenario.at_cs;
      int_list e.Scenario.fail_nodes;
      int_list e.Scenario.fail_links;
      int_list e.Scenario.restore_nodes;
      int_list e.Scenario.restore_links;
    ]

let episode_of_json = function
  | Json.Arr
      [ Json.Int at_cs; Json.Arr fn; Json.Arr fl; Json.Arr rn; Json.Arr rl ]
    -> (
      match
        (all_opt as_int fn, all_opt as_int fl, all_opt as_int rn,
         all_opt as_int rl)
      with
      | Some fail_nodes, Some fail_links, Some restore_nodes, Some restore_links
        ->
          Some
            {
              Scenario.at_cs;
              fail_nodes;
              fail_links;
              restore_nodes;
              restore_links;
            }
      | _ -> None)
  | _ -> None

let scenario_line r =
  let cx, cy, rad = r.area in
  Json.to_string
    (Json.Obj
       ([
          ("seq", Json.Int r.seq);
          ("topo", Json.Int r.topo);
          ("area", Json.Arr [ Json.Float cx; Json.Float cy; Json.Float rad ]);
          ("nodes", int_list r.failed_nodes);
          ("links", int_list r.failed_links);
        ]
       (* Episode-free records keep their v1 bytes: the field only
          appears when a timeline is present. *)
       @ (match r.episodes with
         | [] -> []
         | eps -> [ ("ep", Json.Arr (List.map episode_to_json eps)) ])
       @ [ ("cases", Json.Arr (List.map case_to_json r.cases)) ]))

let parse_scenario line =
  let* j = Json.parse line in
  let* seq = member_int "seq" j in
  let* topo = member_int "topo" j in
  let* area =
    match Json.member "area" j with
    | Some (Json.Arr [ x; y; r ]) -> (
        match (as_float x, as_float y, as_float r) with
        | Some x, Some y, Some r -> Ok (x, y, r)
        | _ -> Error "bad area")
    | _ -> Error "bad area"
  in
  let ints k =
    req k
      (match Json.member k j with
      | Some (Json.Arr xs) -> all_opt as_int xs
      | _ -> None)
  in
  let* failed_nodes = ints "nodes" in
  let* failed_links = ints "links" in
  let* episodes =
    match Json.member "ep" j with
    | None -> Ok []
    | Some (Json.Arr xs) -> req "ep" (all_opt episode_of_json xs)
    | Some _ -> Error "bad ep"
  in
  let* cases =
    req "cases"
      (match Json.member "cases" j with
      | Some (Json.Arr xs) -> all_opt case_of_json xs
      | _ -> None)
  in
  Ok { seq; topo; area; failed_nodes; failed_links; episodes; cases }

(* A result row is positional: everything the reducer consumes is an
   exact integer or boolean; the three stretches are reconstructed from
   their cost numerators by [Runner.stretch_of_cost], which is also how
   [Runner.run_case] derived them — so decode(encode r) = r on every
   float the artifacts read. *)
let result_row_to_json (r : Runner.result) =
  Json.Arr
    [
      case_to_json r.Runner.case;
      Json.Int r.Runner.rtr_p1_hops;
      int_list r.Runner.rtr_p1_bytes;
      Json.Bool r.Runner.rtr_p1_completed;
      Json.Bool r.Runner.rtr_recovered;
      opt_int r.Runner.rtr_cost;
      Json.Int r.Runner.rtr_route_bytes;
      Json.Int r.Runner.rtr_wasted_tx;
      Json.Int r.Runner.rtr_calcs;
      Json.Bool r.Runner.fcp_delivered;
      opt_int r.Runner.fcp_cost;
      Json.Int r.Runner.fcp_calcs;
      int_list r.Runner.fcp_hop_bytes;
      Json.Int r.Runner.fcp_wasted_tx;
      Json.Bool r.Runner.mrc_delivered;
      opt_int r.Runner.mrc_cost;
    ]

let result_line r =
  Json.to_string
    (Json.Obj
       [
         ("seq", Json.Int r.rseq);
         ("topo", Json.Int r.rtopo);
         ("r", Json.Arr (List.map result_row_to_json r.results));
       ])

(* Result lines are read in place through [Json]'s cursor, never as a
   tree: they are nearly all of a shard's bytes, and every one is
   decoded by resume and again by reduce.  The reader takes what
   [Json.parse] followed by [Json.member]/pattern matches would take. *)
let case_of c =
  Json.tuple c (fun c ->
      let initiator = Json.int c in
      let trigger = Json.next Json.int c in
      let dst = Json.next Json.int c in
      let kind =
        match kind_of_int (Json.next Json.int c) with
        | Some k -> k
        | None -> Json.fail c "bad case kind"
      in
      let shortest_after = Json.next Json.int_or_null c in
      { Scenario.initiator; trigger; dst; kind; shortest_after })

let result_row_of c =
  Json.tuple c (fun c ->
      let case = case_of c in
      let rtr_p1_hops = Json.next Json.int c in
      let rtr_p1_bytes = Json.next Json.int_list c in
      let rtr_p1_completed = Json.next Json.bool c in
      let rtr_recovered = Json.next Json.bool c in
      let rtr_cost = Json.next Json.int_or_null c in
      let rtr_route_bytes = Json.next Json.int c in
      let rtr_wasted_tx = Json.next Json.int c in
      let rtr_calcs = Json.next Json.int c in
      let fcp_delivered = Json.next Json.bool c in
      let fcp_cost = Json.next Json.int_or_null c in
      let fcp_calcs = Json.next Json.int c in
      let fcp_hop_bytes = Json.next Json.int_list c in
      let fcp_wasted_tx = Json.next Json.int c in
      let mrc_delivered = Json.next Json.bool c in
      let mrc_cost = Json.next Json.int_or_null c in
      let stretch =
        Runner.stretch_of_cost ~shortest_after:case.Scenario.shortest_after
      in
      {
        Runner.case;
        rtr_p1_hops;
        rtr_p1_bytes;
        rtr_p1_completed;
        rtr_recovered;
        rtr_cost;
        rtr_stretch = stretch rtr_cost;
        rtr_route_bytes;
        rtr_wasted_tx;
        rtr_calcs;
        fcp_delivered;
        fcp_cost;
        fcp_stretch = stretch fcp_cost;
        fcp_calcs;
        fcp_hop_bytes;
        fcp_wasted_tx;
        mrc_delivered;
        mrc_cost;
        mrc_stretch = stretch mrc_cost;
      })

(* The first occurrence of each member counts, as with [Json.member];
   repeats and unknown members are skipped.  [footer] is set when the
   first [format] member is the string [format_footer]. *)
let result_of ~footer c =
  let seq = ref None and topo = ref None and rows = ref None in
  let format_seen = ref false in
  Json.members c (fun k c ->
      match k with
      | "seq" when !seq = None -> seq := Some (Json.int c)
      | "topo" when !topo = None -> topo := Some (Json.int c)
      | "r" when !rows = None -> rows := Some (Json.items c result_row_of)
      | "format" when not !format_seen ->
          format_seen := true;
          footer := Json.value c = Json.String format_footer
      | _ -> Json.skip c);
  match (!seq, !topo, !rows) with
  | Some rseq, Some rtopo, Some results -> { rseq; rtopo; results }
  | None, _, _ -> Json.fail c "bad seq"
  | _, None, _ -> Json.fail c "bad topo"
  | _, _, None -> Json.fail c "bad r"

let parse_result line = Json.read line (result_of ~footer:(ref false))

let parse_shard_record line =
  let footer = ref false in
  match Json.read line (result_of ~footer) with
  | Ok _ when !footer -> Error "a shard footer, not a result record"
  | r -> r

(* --- stream files ---------------------------------------------------- *)

let write path header records =
  let oc = open_out path in
  (* A stream without episodes is written in v1 — byte-identical to
     what every pre-episode build produced and reads back. *)
  let format =
    if List.exists (fun r -> r.episodes <> []) records then format_stream_v2
    else format_stream
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (header_line ~format header);
      output_char oc '\n';
      List.iter
        (fun r ->
          output_string oc (scenario_line r);
          output_char oc '\n';
          Metrics.Counter.incr c_scenarios_out)
        records)

let bad path what =
  Result.map_error (fun msg -> Printf.sprintf "%s: bad %s: %s" path what msg)

let header_of path ic =
  match In_channel.input_line ic with
  | None -> Error (path ^ ": empty stream file")
  | Some line -> bad path "stream header" (parse_header line)
  | exception Sys_error msg -> Error msg

let open_reader path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic -> (
      match header_of path ic with
      | Error _ as e ->
          close_in ic;
          e
      | Ok header ->
          let closed = ref false in
          let close () =
            closed := true;
            close_in ic
          in
          let next () =
            if !closed then None
            else
              match In_channel.input_line ic with
              | None ->
                  close ();
                  None
              | Some line -> (
                  match bad path "scenario record" (parse_scenario line) with
                  | Ok r ->
                      Metrics.Counter.incr c_scenarios_in;
                      Some (Ok r)
                  | Error _ as e ->
                      close ();
                      Some e)
              | exception Sys_error msg ->
                  close ();
                  Some (Error msg)
          in
          Ok (header, next))

let read_header path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> header_of path ic)
