module Graph = Rtr_graph.Graph
module View = Rtr_graph.View
module Spt = Rtr_graph.Spt
module Path = Rtr_graph.Path
module Dijkstra = Rtr_graph.Dijkstra
module Pqueue = Rtr_graph.Pqueue
module Components = Rtr_graph.Components
module Damage = Rtr_failure.Damage
module Route_table = Rtr_routing.Route_table
module Phase1 = Rtr_core.Phase1
module Phase2 = Rtr_core.Phase2
module Rtr = Rtr_core.Rtr
module Scenario = Rtr_sim.Scenario
module Store = Rtr_rmap.Store
module Service = Rtr_rmap.Service

type violation = { oracle : string; detail : string }

type injection = Drop_failed_link | Truncate_walk

let injection_to_string = function
  | Drop_failed_link -> "drop-failed-link"
  | Truncate_walk -> "truncate-walk"

let injection_of_string = function
  | "drop-failed-link" | "drop_failed_link" -> Some Drop_failed_link
  | "truncate-walk" | "truncate_walk" -> Some Truncate_walk
  | _ -> None

type t = {
  name : string;
  doc : string;
  run : inject:injection option -> Spec.t -> violation option;
}

let violation oracle fmt = Printf.ksprintf (fun detail -> { oracle; detail }) fmt

(* Stop at the first violation: oracles short-circuit through [Seq]-free
   exception plumbing kept local to this module. *)
exception Found of violation

let first_violation f =
  match f () with () -> None | exception Found v -> Some v

(* --- episode timelines ---------------------------------------------- *)

module Episode = struct
  type kind = Static | Cascading | Transient | Moving

  let kind_to_string = function
    | Static -> "static"
    | Cascading -> "cascading"
    | Transient -> "transient"
    | Moving -> "moving"

  let kind_of_string = function
    | "static" -> Some Static
    | "cascading" -> Some Cascading
    | "transient" -> Some Transient
    | "moving" -> Some Moving
    | _ -> None

  type stats = {
    transitions : int;
    sessions : int;
    checks : int;
    thm1 : violation option;
        (** Theorem 1 must survive every relaxation: walks terminate and
            routes stay simple under {e any} sealed damage. *)
    thm2_violations : int;
    delivered_suboptimal : int;
    failed_recoverable : int;
    false_unreachable : int;
    stretch_sum : float;
    stretch_max : float;
    first_thm2 : violation option;
  }

  (* The episode evaluation protocol.  For each timeline transition
     d_prev -> d_next: recovery {e started} under d_prev (phase 1 walked
     the old picture) and {e completes} under d_next — phase 2 is built
     from the stale collection, but against d_next, so the initiator's
     local knowledge refreshes while its remote knowledge does not.
     Packets are then forwarded and scored against the new ground truth.
     A static spec degenerates to the single pair (base, base), which is
     exactly the setting of Theorems 1 and 2 — the matrix's baseline row
     and the static oracles [no_loop] and [optimal].  Violations carry
     the name of the registry oracle that reproduces them on [spec]. *)
  let measure ~inject spec =
    let topo, epochs = Spec.timeline spec in
    let g = Rtr_topo.Topology.graph topo in
    let pairs =
      let rec consec = function
        | a :: (b :: _ as rest) -> (a, b) :: consec rest
        | _ -> []
      in
      match List.map snd epochs with [ d ] -> [ (d, d) ] | ds -> consec ds
    in
    let sessions = ref 0 and checks = ref 0 in
    let thm1 = ref None and first_thm2 = ref None in
    let thm2 = ref 0 in
    let subopt = ref 0 and failed_rec = ref 0 and false_unreach = ref 0 in
    let stretch_sum = ref 0. and stretch_max = ref 0. in
    let name1, name2 =
      if spec.Spec.episodes = [] then ("no_loop", "optimal")
      else ("episode_no_loop", "episode_optimal")
    in
    let thm1_hit v = if !thm1 = None then thm1 := Some v in
    let thm2_hit v =
      incr thm2;
      if !first_thm2 = None then first_thm2 := Some v
    in
    List.iteri
      (fun ti (d_prev, d_next) ->
        List.iter
          (fun (initiator, trigger) ->
            let walked =
              match inject with
              | Some Truncate_walk ->
                  (* the injected Theorem-1 bug: a TTL far below 4|E|+4
                     cuts walks that would have closed their cycle *)
                  Phase1.run topo d_prev ~hop_limit:3 ~initiator ~trigger ()
              | _ -> Phase1.run topo d_prev ~initiator ~trigger ()
            in
            let p1 =
              match inject with
              | Some Drop_failed_link -> (
                  match List.rev walked.Phase1.failed_links with
                  | [] -> walked
                  | _ :: rest ->
                      { walked with Phase1.failed_links = List.rev rest })
              | _ -> walked
            in
            (match p1.Phase1.status with
            | Phase1.Completed | Phase1.No_live_neighbor -> ()
            | Phase1.Hop_limit ->
                thm1_hit
                  (violation name1
                     "transition %d: walk from (v%d, v%d) hit the hop limit"
                     ti initiator trigger)
            | Phase1.Stuck u ->
                thm1_hit
                  (violation name1
                     "transition %d: walk from (v%d, v%d) stuck at v%d" ti
                     initiator trigger u));
            let ttl = Phase1.hop_limit g in
            if p1.Phase1.hops > ttl then
              thm1_hit
                (violation name1
                   "transition %d: walk from (v%d, v%d) took %d hops > TTL %d"
                   ti initiator trigger p1.Phase1.hops ttl);
            let seen = Hashtbl.create 64 in
            List.iter
              (fun (s : Phase1.step) ->
                let key =
                  (s.Phase1.at, s.Phase1.reference, s.Phase1.header_bytes)
                in
                if Hashtbl.mem seen key then
                  thm1_hit
                    (violation name1
                       "transition %d: walk from (v%d, v%d) revisited v%d \
                        with an unchanged header"
                       ti initiator trigger s.Phase1.at);
                Hashtbl.replace seen key ())
              p1.Phase1.steps;
            (* An initiator the new episode killed takes its session
               with it — nothing to score. *)
            if Damage.node_ok d_next initiator then begin
              incr sessions;
              (* What the initiator {e knows} failed: its collection and
                 its own dead links.  A source route crossing one of
                 these is a protocol bug whatever the injected fault did
                 to the view. *)
              let known_failed = Hashtbl.create 16 in
              List.iter
                (fun id -> Hashtbl.replace known_failed id ())
                (walked.Phase1.failed_links
                @ List.map snd (Damage.unreachable_neighbors d_next g initiator));
              let ph2 =
                Phase2.create topo d_next ~initiator
                  ~removed:p1.Phase1.failed_links
              in
              let truth_spt =
                Dijkstra.spt (Damage.view d_next) ~root:initiator ()
              in
              for dst = 0 to Graph.n_nodes g - 1 do
                if dst <> initiator then begin
                  incr checks;
                  let recoverable =
                    Damage.node_ok d_next dst && Spt.reached truth_spt dst
                  in
                  match Phase2.recovery_path ph2 ~dst with
                  | None ->
                      (* Only a transient repair can make this happen:
                         the stale view is missing links the episode
                         restored. *)
                      if recoverable then begin
                        incr false_unreach;
                        thm2_hit
                          (violation name2
                             "transition %d: false unreachable verdict for \
                              v%d from (v%d, v%d) under the stale collection"
                             ti dst initiator trigger)
                      end
                  | Some path ->
                      let distinct = Hashtbl.create 16 in
                      List.iter
                        (fun v ->
                          if Hashtbl.mem distinct v then
                            thm1_hit
                              (violation name1
                                 "transition %d: recovery path (v%d -> v%d) \
                                  revisits v%d"
                                 ti initiator dst v);
                          Hashtbl.replace distinct v ())
                        (Path.nodes path);
                      match
                        List.find_opt (Hashtbl.mem known_failed)
                          (Path.links g path)
                      with
                      | Some id ->
                          thm2_hit
                            (violation name2
                               "transition %d: source route (v%d -> v%d) \
                                crosses %s, which the initiator knew had \
                                failed"
                               ti initiator dst (Graph.link_name g id))
                      | None -> (
                        match Rtr_routing.Source_route.follow g d_next path with
                        | Rtr_routing.Source_route.Delivered ->
                            let cost = Path.cost g path in
                            let best = Spt.dist truth_spt dst in
                            if cost > best then begin
                              (* delivered, but over a detour: the stale
                                 view still excludes restored links *)
                              incr subopt;
                              let s =
                                float_of_int cost /. float_of_int best
                              in
                              stretch_sum := !stretch_sum +. s;
                              if s > !stretch_max then stretch_max := s;
                              thm2_hit
                                (violation name2
                                   "transition %d: delivered (v%d -> v%d) at \
                                    cost %d, optimal is %d (stretch %.3f)"
                                   ti initiator dst cost best s)
                            end
                        | Rtr_routing.Source_route.Dropped _ ->
                            (* Dropping at an {e old} uncollected failure
                               is E1 ⊆ E2's legitimate first-attempt loss
                               (a static pair never counts it); only a
                               drop the episode itself caused — the same
                               packet would have been delivered under the
                               picture the walk saw — counts: the
                               cascading signature. *)
                            if
                              recoverable
                              && Rtr_routing.Source_route.follow g d_prev path
                                 = Rtr_routing.Source_route.Delivered
                            then begin
                              incr failed_rec;
                              thm2_hit
                                (violation name2
                                   "transition %d: packet (v%d -> v%d) dropped \
                                    though the destination is recoverable"
                                   ti initiator dst)
                            end)
                end
              done
            end)
          (Gen.detectors topo d_prev))
      pairs;
    {
      transitions = List.length pairs;
      sessions = !sessions;
      checks = !checks;
      thm1 = !thm1;
      thm2_violations = !thm2;
      delivered_suboptimal = !subopt;
      failed_recoverable = !failed_rec;
      false_unreachable = !false_unreach;
      stretch_sum = !stretch_sum;
      stretch_max = !stretch_max;
      first_thm2 = !first_thm2;
    }

  (* Theorem 3 over a settled base: the network has converged on
     [d_end] — every router knows the surviving topology — and then one
     more non-bridge link fails.  Converged base knowledge is modelled
     by carrying all of [d_end] as removed links (failure information
     "already in the header"), so optimality must hold exactly,
     single-failure style.  [Damage.none] is the paper's own setting;
     the post-episode damage is the settled network of a timeline. *)
  let single_link ~oracle:name topo d_end =
    let g = Rtr_topo.Topology.graph topo in
    let view_end = Damage.view d_end in
    let base_count = Components.count (Components.compute view_end) in
    let known = Damage.failed_links d_end in
    let checks = ref 0 in
    let viol =
      first_violation @@ fun () ->
      for l = 0 to Graph.n_links g - 1 do
        if Damage.link_ok d_end l then begin
          (* Theorem 3 presumes the extra link is not a bridge {e of the
             settled network}. *)
          let view' = View.remove_links view_end [ l ] in
          if Components.count (Components.compute view') = base_count then begin
            let damage =
              Damage.merge d_end (Damage.of_failed g ~nodes:[] ~links:[ l ])
            in
            let u, v = Graph.endpoints g l in
            List.iter
              (fun (initiator, trigger) ->
                let p1 = Phase1.run topo damage ~initiator ~trigger () in
                let ph2 =
                  Phase2.create topo damage ~initiator
                    ~removed:(known @ p1.Phase1.failed_links)
                in
                let spt =
                  Dijkstra.spt (Damage.view damage) ~root:initiator ()
                in
                for dst = 0 to Graph.n_nodes g - 1 do
                  if
                    dst <> initiator
                    && Damage.node_ok damage dst
                    && Spt.reached spt dst
                  then begin
                    incr checks;
                    match Phase2.recovery_path ph2 ~dst with
                    | None ->
                        raise
                          (Found
                             (violation name
                                "settled + %s: false unreachable verdict for \
                                 v%d from v%d"
                                (Graph.link_name g l) dst initiator))
                    | Some path -> (
                        match
                          Rtr_routing.Source_route.follow g damage path
                        with
                        | Rtr_routing.Source_route.Delivered ->
                            let cost = Path.cost g path in
                            let best = Spt.dist spt dst in
                            if cost <> best then
                              raise
                                (Found
                                   (violation name
                                      "settled + %s: path (v%d -> v%d) costs \
                                       %d, shortest is %d"
                                      (Graph.link_name g l) initiator dst cost
                                      best))
                        | Rtr_routing.Source_route.Dropped _ ->
                            raise
                              (Found
                                 (violation name
                                    "settled + %s: packet (v%d -> v%d) \
                                     dropped despite converged base knowledge"
                                    (Graph.link_name g l) initiator dst)))
                  end
                done)
              [ (u, v); (v, u) ]
          end
        end
      done
    in
    (!checks, viol)
end

(* The three theorems, static and per episode, all through [Episode]:
   a static oracle checks the (base, base) transition of the spec with
   its timeline stripped, and Theorem 3 sweeps the intact topology.
   Episode oracles return [None] instantly on a static spec, so the
   default campaigns (and every pre-episode corpus artifact) are
   untouched by their presence in [all]. *)

let static_run pick ~inject spec =
  pick (Episode.measure ~inject { spec with Spec.episodes = [] })

let episode_run pick ~inject spec =
  if spec.Spec.episodes = [] then None else pick (Episode.measure ~inject spec)

let single_link_run ~inject:_ spec =
  let topo, _ = Spec.build spec in
  snd
    (Episode.single_link ~oracle:"single_link" topo
       (Damage.none (Rtr_topo.Topology.graph topo)))

let episode_single_link_run ~inject:_ spec =
  if spec.Spec.episodes = [] then None
  else
    let topo, epochs = Spec.timeline spec in
    snd
      (Episode.single_link ~oracle:"episode_single_link" topo
         (snd (List.hd (List.rev epochs))))

(* --- differential oracles ------------------------------------------- *)

(* FCP's shared-tree session against the from-scratch reference: every
   case of the damage, twice, in shuffled order, through one session,
   so trees held for one route answer later routes with other
   initiators, destinations and carried sets. *)
let fcp_vs_reference_run ~inject:_ spec =
  let topo, damage = Spec.build spec in
  let g = Rtr_topo.Topology.graph topo in
  let name = "fcp_vs_reference" in
  let table = Route_table.compute (View.full g) in
  let cases = Scenario.cases_of_damage topo table damage in
  let order = Array.of_list (cases @ cases) in
  Rtr_util.Rng.shuffle (Rtr_util.Rng.make (Hashtbl.hash spec)) order;
  let session = Rtr_baselines.Fcp.start topo damage in
  first_violation @@ fun () ->
  Array.iter
    (fun (c : Scenario.case) ->
      let initiator = c.Scenario.initiator and dst = c.Scenario.dst in
      let routed =
        try Rtr_baselines.Fcp.route session ~initiator ~dst
        with Failure msg -> raise (Found (violation name "%s" msg))
      in
      if routed <> Reference.fcp topo damage ~initiator ~dst then
        raise
          (Found
             (violation name
                "session route v%d -> v%d differs from the reference" initiator
                dst)))
    order

(* Every graph-layer computation the theorem oracles lean on, against
   the textbook reference: owned and workspace SPTs in both directions,
   the routing table's rows (the reference's To_root trees) and
   component membership (the reference's reachability), for every root
   on the full and the damaged view. *)
let graph_vs_reference_run ~inject:_ spec =
  let topo, damage = Spec.build spec in
  let g = Rtr_topo.Topology.graph topo in
  let n = Graph.n_nodes g in
  let name = "graph_vs_reference" in
  (* The domain's own arena, deliberately: consecutive fuzz specs have
     different graph sizes, and other oracles churn the same workspace
     in between, so one campaign exercises reuse across roots, views,
     directions AND re-sizing. *)
  let workspace = Dijkstra.Workspace.get () in
  let same_tree (a : Spt.t) (b : Spt.t) =
    a.Spt.dist = b.Spt.dist
    && a.Spt.parent_node = b.Spt.parent_node
    && a.Spt.parent_link = b.Spt.parent_link
  in
  let check label view =
    let table = Route_table.compute view in
    let comps = Components.compute view in
    for root = 0 to n - 1 do
      List.iter
        (fun (direction, dir) ->
          let r = Reference.spt view ~root ~direction in
          let differs what =
            raise
              (Found
                 (violation name "%s differs from the reference at root v%d \
                                  (%s, %s)" what root label dir))
          in
          if not (same_tree (Dijkstra.spt view ~root ~direction ()) r) then
            differs "owned SPT";
          (* Compare the borrowed tree before the next borrow. *)
          if not (same_tree (Dijkstra.spt ~workspace view ~root ~direction ()) r)
          then differs "workspace SPT";
          match direction with
          | Spt.To_root ->
              if
                Route_table.next_row table ~dst:root <> r.Spt.parent_node
                || Route_table.link_row table ~dst:root <> r.Spt.parent_link
                || Array.init n (fun src -> Route_table.dist table ~src ~dst:root)
                   <> r.Spt.dist
              then differs "routing table row"
          | Spt.From_root ->
              for v = 0 to n - 1 do
                if Components.same comps root v <> Spt.reached r v then
                  differs (Printf.sprintf "component membership of v%d" v)
              done)
        [ (Spt.From_root, "from-root"); (Spt.To_root, "to-root") ]
    done
  in
  first_violation @@ fun () ->
  check "full" (View.full g);
  check "damaged" (Damage.view damage)

let dial_vs_heap_run ~inject:_ spec =
  let topo, damage = Spec.build spec in
  let g = Rtr_topo.Topology.graph topo in
  let n = Graph.n_nodes g in
  let name = "dial_vs_heap" in
  (* The heap side runs on a copy of [g] with the same link ids and
     every cost multiplied by [factor], which pushes the copy's queue
     bound past [Pqueue.max_dial_bound], so its runs take the binary
     heap while [g]'s take the Dial buckets whenever its bound fits.
     Scaling every cost by one factor changes no parent and multiplies
     every distance by it, so the two runs must agree on every parent
     and on dist up to the factor.  The two queues pop equal priorities
     in different orders (Dial LIFO, the heap by tag), so a tree that
     leaned on pop order rather than Dijkstra's tie rule would show
     here. *)
  let factor =
    (Pqueue.max_dial_bound / (Graph.max_cost g * max 1 (n - 1))) + 1
  in
  let scaled =
    Graph.build_weighted ~n
      ~edges:
        (List.init (Graph.n_links g) (fun id ->
             let u, v = Graph.endpoints g id in
             ( u,
               v,
               factor * Graph.cost g id ~src:u,
               factor * Graph.cost g id ~src:v )))
  in
  let views g =
    ( View.full g,
      View.of_failed g ~nodes:(Damage.failed_nodes damage)
        ~links:(Damage.failed_links damage) )
  in
  let full, damaged = views g and full', damaged' = views scaled in
  let check ~root ~direction (view, view') label =
    let a = Dijkstra.spt view ~root ~direction () in
    let b = Dijkstra.spt view' ~root ~direction () in
    if
      Array.map (fun d -> if d = max_int then d else d * factor) a.Spt.dist
      <> b.Spt.dist
      || a.Spt.parent_node <> b.Spt.parent_node
      || a.Spt.parent_link <> b.Spt.parent_link
    then
      raise
        (Found
           (violation name
              "dial and heap Dijkstra runs differ at root v%d (%s)" root
              label))
  in
  first_violation @@ fun () ->
  for root = 0 to n - 1 do
    check ~root ~direction:Spt.From_root (full, full') "full, from-root";
    if Damage.node_ok damage root then begin
      check ~root ~direction:Spt.From_root (damaged, damaged')
        "damaged, from-root";
      check ~root ~direction:Spt.To_root (damaged, damaged') "damaged, to-root"
    end
  done

let parallel_run ~inject:_ spec =
  let topo, damage = Spec.build spec in
  let g = Rtr_topo.Topology.graph topo in
  let name = "parallel_vs_sequential" in
  if not (Components.is_connected g) then None
  else begin
    let table = Route_table.compute (View.full g) in
    match Scenario.cases_of_damage topo table damage with
    | [] -> None
    | cases ->
        let area =
          (* [Runner] never reads the area; [Explicit] specs get a
             zero-radius placeholder so the record can be built. *)
          match spec.Spec.failure with
          | Spec.Disc { cx; cy; r } ->
              Rtr_failure.Area.disc ~center:(Rtr_geom.Point.make cx cy)
                ~radius:r
          | Spec.Explicit _ ->
              Rtr_failure.Area.disc ~center:Rtr_geom.Point.origin ~radius:0.
        in
        let scenario = { Scenario.topo; table; area; damage; cases } in
        let mrc = Rtr_baselines.Mrc.build_auto g in
        let eval jobs =
          Rtr_sim.Parallel.map ~jobs
            (fun c ->
              Rtr_sim.Runner.run_scenario ~mrc
                { scenario with Scenario.cases = [ c ] })
            (Array.of_list cases)
        in
        if eval 1 = eval 3 then None
        else
          Some
            (violation name
               "jobs=3 evaluation differs from the sequential run on %d cases"
               (List.length cases))
  end

(* The same artifact with one slot left out: every query on that
   signature then takes the service's reactive fallback. *)
let artifact_without store ~slot =
  let entries = ref [] in
  Store.iter_slots store (fun s ->
      if s <> slot then begin
        let first, count = Store.case_range store s in
        entries :=
          ( Store.signature store s,
            Array.init count (fun i -> Store.to_case store (first + i)) )
          :: !entries
      end);
  Store.encode ~topo_name:(Store.topo_name store)
    ~n_nodes:(Store.n_nodes store) ~n_links:(Store.n_links store) !entries
  |> Store.of_string

let rmap_fail fmt =
  Printf.ksprintf
    (fun detail -> raise (Found { oracle = "rmap_vs_reactive"; detail }))
    fmt

(* [source] answered [kind, cost, true_cost, path] for case [c]; the
   independent reactive [outcome] and the ground truth must agree. *)
let check_rmap_answer g (c : Scenario.case) outcome ~source ~kind ~cost
    ~true_cost ~path =
  let where fmt =
    Printf.ksprintf
      (fun s ->
        rmap_fail "(v%d, v%d) -> v%d: %s %s" c.Scenario.initiator
          c.Scenario.trigger c.Scenario.dst source s)
      fmt
  in
  let check_path kind_name p =
    if path <> Array.of_list (Path.nodes p) then
      where "%s route differs from the reactive one" kind_name;
    let reactive = Path.cost g p in
    if cost <> reactive then
      where "cost %d, reactive %s route costs %d" cost kind_name reactive
  in
  (match outcome with
  | Rtr.Recovered p ->
      if kind <> Store.Recovered then where "kind differs: reactive recovered";
      check_path "recovered" p
  | Rtr.Unreachable_in_view ->
      if kind <> Store.Unreachable then
        where "kind differs: reactive unreachable";
      if cost <> -1 then where "unreachable case costs %d" cost;
      if path <> [||] then where "unreachable case has a route"
  | Rtr.False_path { path = p; _ } ->
      if kind <> Store.False_path then
        where "kind differs: reactive false path";
      check_path "false-path" p);
  let truth = Option.value c.Scenario.shortest_after ~default:(-1) in
  if true_cost <> truth then
    where "true cost %d, ground truth %d" true_cost truth

let rmap_run ~inject:_ spec =
  let topo, damage0 = Spec.build spec in
  let g = Rtr_topo.Topology.graph topo in
  match Damage.failed_links damage0 with
  | [] -> None (* empty signature: never compiled, nothing to compare *)
  | links ->
      first_violation @@ fun () ->
      (* The recovery map keys on failed-link sets, so both sides of the
         comparison run over the canonical link-set damage. *)
      let damage = Damage.of_failed g ~nodes:[] ~links in
      let config =
        { Rtr_rmap.Enum.default with Rtr_rmap.Enum.explicit = [ links ] }
      in
      (* [default] keeps singles on, so the index holds many entries and
         the binary-search probes below are non-trivial. *)
      let compiled = Rtr_rmap.Compile.run topo config in
      let store =
        match Store.of_string compiled.Rtr_rmap.Compile.artifact with
        | Ok store -> store
        | Error e -> rmap_fail "artifact rejected on reload: %s" e
      in
      let signature = Rtr_rmap.Signature.of_damage g damage in
      let slot =
        match Store.find store signature with
        | Some slot -> slot
        | None ->
            rmap_fail "compiled signature %s missing from its own artifact"
              (Rtr_rmap.Signature.to_hex signature)
      in
      let table = Route_table.compute (View.full g) in
      let cases = Scenario.cases_of_damage topo table damage in
      let first, count = Store.case_range store slot in
      if count <> List.length cases then
        rmap_fail "artifact holds %d cases, the reactive enumeration %d" count
          (List.length cases);
      (* Every case is asked twice: of the artifact, and of a service
         whose artifact lacks this signature, so it takes the
         fallback. *)
      let service =
        match
          Result.bind (artifact_without store ~slot) (Service.create ~topo)
        with
        | Ok service -> service
        | Error e -> rmap_fail "artifact without the slot: %s" e
      in
      (* The independent twin of the compiler kernel: fresh sessions,
         path costs summed link by link instead of read off the
         session's SPT labels. *)
      let sessions = Hashtbl.create 8 in
      let session (c : Scenario.case) =
        let key = (c.Scenario.initiator, c.Scenario.trigger) in
        match Hashtbl.find_opt sessions key with
        | Some s -> s
        | None ->
            let s =
              Rtr.start topo damage ~initiator:c.Scenario.initiator
                ~trigger:c.Scenario.trigger ()
            in
            Hashtbl.replace sessions key s;
            s
      in
      List.iteri
        (fun i (c : Scenario.case) ->
          let initiator = c.Scenario.initiator
          and trigger = c.Scenario.trigger
          and dst = c.Scenario.dst in
          let idx = Store.case_index store ~slot ~initiator ~trigger ~dst in
          if idx <> first + i then
            rmap_fail "(v%d, v%d) -> v%d: case_index probed %d, expected %d"
              initiator trigger dst idx (first + i);
          let outcome = Rtr.recover (session c) ~dst in
          let s = Store.to_case store idx in
          check_rmap_answer g c outcome ~source:"stored" ~kind:s.Store.kind
            ~cost:s.Store.cost ~true_cost:s.Store.true_cost ~path:s.Store.path;
          match Service.query service ~links ~initiator ~trigger ~dst with
          | Error e ->
              rmap_fail "(v%d, v%d) -> v%d: fallback failed: %s" initiator
                trigger dst e
          | Ok r when r.Service.from_artifact ->
              rmap_fail "(v%d, v%d) -> v%d: fallback answered from the artifact"
                initiator trigger dst
          | Ok r ->
              check_rmap_answer g c outcome ~source:"fallback"
                ~kind:r.Service.kind ~cost:r.Service.cost
                ~true_cost:r.Service.true_cost ~path:r.Service.path)
        cases

(* --- flow engine vs packet engine ----------------------------------- *)

(* Differential check of the two DES backends: the flow-level engine
   (piecewise-constant windows, global detection/convergence
   boundaries) and the per-packet engine (per-link hold-downs,
   per-router convergence, packets in flight across transitions) must
   agree on the delivered fraction of the same demand matrix, within a
   tolerance covering exactly the boundary effects the flow engine
   coarsens away.  Runs on static specs only — episode timelines are
   where the two time models legitimately diverge (and where the
   episode oracles already bite), so they return [None] here, the
   mirror image of the episode oracles' static short-circuit. *)
let flow_vs_packet_tolerance = 0.08

let flow_vs_packet_run ~inject:_ spec =
  if spec.Spec.episodes <> [] then None
  else
    let module Netsim = Rtr_des.Netsim in
    let module Flowsim = Rtr_des.Flowsim in
    let topo, damage = Spec.build spec in
    let name = "flow_vs_packet" in
    first_violation @@ fun () ->
    let flows = Flowsim.demand topo ~n:250 ~seed:11 in
    let packet_flows =
      Array.to_list
        (Array.map
           (fun (f : Flowsim.flow) ->
             {
               Netsim.src = f.Flowsim.src;
               dst = f.Flowsim.dst;
               rate_pps = 10.0 *. float_of_int f.Flowsim.rate;
             })
           flows)
    in
    List.iter
      (fun (rtr_enabled, scheme) ->
        let ns =
          Netsim.run topo damage
            {
              Netsim.igp = Rtr_igp.Igp_config.classic;
              rtr_enabled;
              t_fail = 0.5;
              t_end = 4.0;
              flows = packet_flows;
              episodes = [];
            }
        in
        let fs =
          Flowsim.run topo damage
            {
              Flowsim.default_config with
              Flowsim.scheme;
              t_fail = 0.5;
              t_end = 4.0;
            }
            flows
        in
        let packet_frac =
          if ns.Netsim.generated = 0 then 0.0
          else
            float_of_int ns.Netsim.delivered /. float_of_int ns.Netsim.generated
        in
        let gap = Float.abs (packet_frac -. fs.Flowsim.delivered_frac) in
        if gap > flow_vs_packet_tolerance then
          raise
            (Found
               (violation name
                  "scheme %s: packet engine delivered %.4f, flow engine %.4f \
                   (gap %.4f > %.2f) on %d flows"
                  (Flowsim.scheme_name scheme)
                  packet_frac fs.Flowsim.delivered_frac gap
                  flow_vs_packet_tolerance (Array.length flows))))
      [ (false, Flowsim.No_recovery); (true, Flowsim.Rtr_scheme) ]


(* --- registry ------------------------------------------------------- *)

let all =
  [
    {
      name = "no_loop";
      doc = "Theorem 1: phase-1 walks terminate, within TTL, without loops";
      run = static_run (fun s -> s.Episode.thm1);
    };
    {
      name = "optimal";
      doc = "Theorem 2: recovery paths are shortest in the true failed graph";
      run = static_run (fun s -> s.Episode.first_thm2);
    };
    {
      name = "single_link";
      doc = "Theorem 3: any non-bridge single link failure recovers optimally";
      run = single_link_run;
    };
    {
      name = "fcp_vs_reference";
      doc =
        "FCP routes from a shared-tree session equal the from-scratch reference";
      run = fcp_vs_reference_run;
    };
    {
      name = "graph_vs_reference";
      doc =
        "owned and workspace SPTs, routing tables and components equal the \
         textbook reference";
      run = graph_vs_reference_run;
    };
    {
      name = "dial_vs_heap";
      doc =
        "bucket-queue (Dial) SPTs equal binary-heap SPTs on a cost-scaled \
         copy";
      run = dial_vs_heap_run;
    };
    {
      name = "parallel_vs_sequential";
      doc = "pool evaluation is bit-identical to the sequential run";
      run = parallel_run;
    };
    {
      name = "rmap_vs_reactive";
      doc = "precompiled recovery-map lookups equal fresh reactive runs";
      run = rmap_run;
    };
    {
      name = "episode_no_loop";
      doc =
        "Theorem 1 across episode transitions: stale-picture walks still \
         terminate loop-free";
      run = episode_run (fun s -> s.Episode.thm1);
    };
    {
      name = "episode_optimal";
      doc =
        "Theorem 2 across episode transitions: expected to break under \
         cascading/transient relaxations (measured, with stretch)";
      run = episode_run (fun s -> s.Episode.first_thm2);
    };
    {
      name = "episode_single_link";
      doc =
        "Theorem 3 on the settled post-episode network with converged base \
         knowledge";
      run = episode_single_link_run;
    };
    {
      name = "flow_vs_packet";
      doc =
        "flow-level delivery fractions match the per-packet engine within \
         tolerance (static specs; RTR on and off)";
      run = flow_vs_packet_run;
    };
  ]

let find name = List.find_opt (fun o -> o.name = name) all
