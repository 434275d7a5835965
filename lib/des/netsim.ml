module Graph = Rtr_graph.Graph
module Damage = Rtr_failure.Damage
module Route_table = Rtr_routing.Route_table
module Topo_cache = Rtr_routing.Topo_cache
module Delay = Rtr_routing.Delay
module Convergence = Rtr_igp.Convergence
module Sweep = Rtr_core.Sweep
module Phase2 = Rtr_core.Phase2
module Crossings = Rtr_topo.Crossings

module Metrics = Rtr_obs.Metrics
module Trace = Rtr_obs.Trace

let c_events = Metrics.counter "netsim.events"
let c_generated = Metrics.counter "netsim.generated"
let c_delivered = Metrics.counter "netsim.delivered"
let c_phase1_packets = Metrics.counter "netsim.phase1_packets"
let g_queue_depth = Metrics.gauge "netsim.queue_depth_max"
let c_drop_blackhole = Metrics.counter "netsim.drop.blackhole"
let c_drop_no_route = Metrics.counter "netsim.drop.no_route"
let c_drop_unreachable_in_view = Metrics.counter "netsim.drop.unreachable_in_view"
let c_drop_missed_failure = Metrics.counter "netsim.drop.missed_failure"
let c_drop_recovery_impossible = Metrics.counter "netsim.drop.recovery_impossible"
let c_drop_ttl_expired = Metrics.counter "netsim.drop.ttl_expired"

let ensure_metrics_registered () = ()

type flow = { src : Graph.node; dst : Graph.node; rate_pps : float }

type config = {
  igp : Rtr_igp.Igp_config.t;
  rtr_enabled : bool;
  t_fail : float;
  t_end : float;
  flows : flow list;
  episodes : (float * Damage.t) list;
}

type drop_reason =
  | Blackhole
  | No_route
  | Unreachable_in_view
  | Missed_failure
  | Recovery_impossible
  | Ttl_expired

type stats = {
  generated : int;
  delivered : int;
  dropped : int;
  drops_by_reason : (drop_reason * int) list;
  mean_delay_s : float;
  max_delay_s : float;
  phase1_packets : int;
  timeline : (float * int * int) list;
}

let drop_counter = function
  | Blackhole -> c_drop_blackhole
  | No_route -> c_drop_no_route
  | Unreachable_in_view -> c_drop_unreachable_in_view
  | Missed_failure -> c_drop_missed_failure
  | Recovery_impossible -> c_drop_recovery_impossible
  | Ttl_expired -> c_drop_ttl_expired

let pp_drop_reason ppf r =
  Format.pp_print_string ppf
    (match r with
    | Blackhole -> "blackhole"
    | No_route -> "no-route"
    | Unreachable_in_view -> "unreachable-in-view"
    | Missed_failure -> "missed-failure"
    | Recovery_impossible -> "recovery-impossible"
    | Ttl_expired -> "ttl-expired")

(* The phase-1 header a walking packet carries: exactly the paper's
   mode/rec_init/failed_link/cross_link fields. *)
type p1_header = {
  rec_init : Graph.node;
  first_hop : Graph.node;
  mutable failed : Graph.link_id list;
  mutable cross : Graph.link_id list;
  mutable walk_hops : int;
}

type mode =
  | Default
  | Phase1 of p1_header
  | Sourced of Graph.node list  (** nodes still to visit *)

type packet = {
  id : int;
  src : Graph.node;
  dst : Graph.node;
  created : float;
  mutable mode : mode;
  mutable walked : bool;  (** ever carried a phase-1 header *)
  mutable ttl : int;
}

(* The recovery state a router keeps per the protocol: nothing global,
   only what headers brought home. *)
type session =
  | Collecting of { first_hop : Graph.node }
  | Ready of Phase2.t

type event = Arrival of { packet : packet; at : Graph.node; from : Graph.node option }

(* One ground-truth era.  Epoch 0 is the base failure at [t_fail]; each
   episode opens another.  A router's world is always the epoch active
   at the current instant: its FIB after convergence is [e_post], its
   convergence clock restarts at [e_start], and a link's detection
   hold-down counts from [e_since] — the time its *current* outage
   began, inherited across epochs while it stays down so a cascade does
   not reset already-running detections. *)
type epoch = {
  e_start : float;
  e_damage : Damage.t;
  e_post : Route_table.t;
  e_convergence : Convergence.t;
  e_since : float array;  (** per link id; [infinity] while up *)
}

type sim = {
  topo : Rtr_topo.Topology.t;
  g : Graph.t;
  config : config;
  pre : Route_table.t;
  epochs : epoch array;
  mutable cur : int;  (** epoch active at the event being handled *)
  queue : event Event_queue.t;
  sessions : (Graph.node, int * session) Hashtbl.t;
      (** initiator -> (epoch that built it, session); stale entries are
          discarded on lookup *)
  (* metrics *)
  mutable generated : int;
  mutable delivered : int;
  mutable phase1_packets : int;
  mutable delays : float list;
  drops : (drop_reason, int ref) Hashtbl.t;
  mutable n_dropped : int;
  buckets : (int, int ref * int ref) Hashtbl.t;
}

let cur_epoch sim = sim.epochs.(sim.cur)
let cur_damage sim = (cur_epoch sim).e_damage

(* Events pop in time order, so the active epoch only moves forward. *)
let set_now sim t =
  while
    sim.cur + 1 < Array.length sim.epochs
    && t >= sim.epochs.(sim.cur + 1).e_start
  do
    sim.cur <- sim.cur + 1
  done

(* Pure lookup for the generation loop, whose times restart per flow. *)
let epoch_at sim t =
  let i = ref 0 in
  while
    !i + 1 < Array.length sim.epochs && t >= sim.epochs.(!i + 1).e_start
  do
    incr i
  done;
  sim.epochs.(!i)

let bucket_width = 0.05

let bucket sim t =
  let k = int_of_float (t /. bucket_width) in
  match Hashtbl.find_opt sim.buckets k with
  | Some b -> b
  | None ->
      let b = (ref 0, ref 0) in
      Hashtbl.replace sim.buckets k b;
      b

let deliver sim t packet =
  sim.delivered <- sim.delivered + 1;
  Metrics.Counter.incr c_delivered;
  sim.delays <- (t -. packet.created) :: sim.delays;
  incr (fst (bucket sim t))

let drop sim t reason =
  sim.n_dropped <- sim.n_dropped + 1;
  Metrics.Counter.incr (drop_counter reason);
  incr (snd (bucket sim t));
  match Hashtbl.find_opt sim.drops reason with
  | Some r -> incr r
  | None -> Hashtbl.replace sim.drops reason (ref 1)

(* What a router can locally know at time [t]: failures exist from the
   epoch that introduced them but are only observable once their
   outage has lasted the detection hold-down. *)
let failure_active sim t = t >= sim.config.t_fail

let observably_unreachable sim t v link =
  let e = cur_epoch sim in
  Damage.neighbor_unreachable e.e_damage v link
  && t >= e.e_since.(link) +. sim.config.igp.Rtr_igp.Igp_config.detection_s

let actually_unreachable sim t v link =
  failure_active sim t && Damage.neighbor_unreachable (cur_damage sim) v link

let converged sim t u =
  let e = cur_epoch sim in
  let c = e.e_start +. Convergence.converged_at e.e_convergence u in
  Float.is_finite c && t >= c

let ttl_initial = 255

let forward sim t packet ~from_ ~to_ =
  packet.ttl <- packet.ttl - 1;
  if packet.ttl <= 0 then drop sim t Ttl_expired
  else
    Event_queue.add sim.queue
      ~time:(t +. Delay.per_hop_s)
      (Arrival { packet; at = to_; from = Some from_ })

(* --- RTR phase 1, distributed ------------------------------------- *)

let crossings sim = Rtr_topo.Topology.crossings sim.topo

let excluded_by hdr sim id =
  List.exists (fun c -> Crossings.crosses (crossings sim) id c) hdr.cross

(* Constraint 2: a chosen link with an unexcluded crosser joins the
   header's cross_link. *)
let update_cross sim hdr chosen =
  let unexcluded x = not (excluded_by hdr sim x) in
  if
    List.exists unexcluded (Crossings.crossing (crossings sim) chosen)
    && not (List.mem chosen hdr.cross)
  then hdr.cross <- chosen :: hdr.cross

(* Constraint 1 seed at the initiator. *)
let initial_cross sim initiator =
  List.filter_map
    (fun (_, id) ->
      if Crossings.has_crossing (crossings sim) id then Some id else None)
    (Damage.unreachable_neighbors (cur_damage sim) sim.g initiator)

let record_failures sim hdr w =
  if w <> hdr.rec_init then
    List.iter
      (fun (v, id) ->
        if v <> hdr.rec_init && not (List.mem id hdr.failed) then
          hdr.failed <- id :: hdr.failed)
      (Damage.unreachable_neighbors (cur_damage sim) sim.g w)

let sweep_next sim hdr ~at ~reference =
  Sweep.select sim.topo (cur_damage sim) ~at ~reference
    ~excluded:(excluded_by hdr sim) ()

(* Phase 2, from header contents plus the initiator's own adjacencies
   only. *)
let install_ready sim initiator collected =
  let ready =
    Ready
      (Phase2.create sim.topo (cur_damage sim) ~initiator ~removed:collected)
  in
  Hashtbl.replace sim.sessions initiator (sim.cur, ready);
  ready

let recovery_route ready dst =
  match ready with
  | Collecting _ -> assert false
  | Ready phase2 ->
      Option.map Rtr_graph.Path.nodes (Phase2.recovery_path phase2 ~dst)

(* --- per-arrival dispatch ----------------------------------------- *)

let rec handle sim t packet ~at ~from =
  if failure_active sim t && Damage.node_failed (cur_damage sim) at then
    (* the router died while the packet was in flight *)
    drop sim t Blackhole
  else if at = packet.dst then deliver sim t packet
  else
    match packet.mode with
    | Default -> handle_default sim t packet ~at
    | Phase1 hdr -> handle_phase1 sim t packet hdr ~at ~from
    | Sourced remaining -> handle_sourced sim t packet remaining ~at

and handle_default sim t packet ~at =
  if converged sim t at then
    (* post-convergence FIB: correct by construction *)
    match
      Route_table.next_hop (cur_epoch sim).e_post ~src:at ~dst:packet.dst
    with
    | None -> drop sim t No_route
    | Some v -> forward sim t packet ~from_:at ~to_:v
  else
    match
      ( Route_table.next_hop sim.pre ~src:at ~dst:packet.dst,
        Route_table.next_link sim.pre ~src:at ~dst:packet.dst )
    with
    | Some v, Some link ->
        if actually_unreachable sim t v link then
          if not (observably_unreachable sim t v link) then
            (* hold-down: the router does not know yet *)
            drop sim t Blackhole
          else if not sim.config.rtr_enabled then drop sim t Blackhole
          else start_or_join_recovery sim t packet ~at ~trigger:v
        else forward sim t packet ~from_:at ~to_:v
    | _ -> drop sim t No_route

and start_or_join_recovery sim t packet ~at ~trigger =
  (* A session built under an earlier epoch describes a world that no
     longer exists: discard it and recover afresh. *)
  match Hashtbl.find_opt sim.sessions at with
  | Some (ep, (Ready _ as ready)) when ep = sim.cur ->
      dispatch_recovered sim t packet ~at ~ready
  | Some (ep, Collecting { first_hop }) when ep = sim.cur ->
      launch_walk sim t packet ~at ~first_hop
  | Some _ | None -> (
      (* become a recovery initiator *)
      let hdr_probe =
        {
          rec_init = at;
          first_hop = at;
          failed = [];
          cross = initial_cross sim at;
          walk_hops = 0;
        }
      in
      match sweep_next sim hdr_probe ~at ~reference:trigger with
      | None ->
          (* completely cut off: the local view is all there is *)
          let ready = install_ready sim at [] in
          dispatch_recovered sim t packet ~at ~ready
      | Some (first_hop, _) ->
          Hashtbl.replace sim.sessions at (sim.cur, Collecting { first_hop });
          launch_walk sim t packet ~at ~first_hop)

and launch_walk sim t packet ~at ~first_hop =
  let hdr =
    {
      rec_init = at;
      first_hop;
      failed = [];
      cross = initial_cross sim at;
      walk_hops = 1;
    }
  in
  (match Graph.find_link sim.g at first_hop with
  | Some link -> update_cross sim hdr link
  | None -> assert false);
  packet.mode <- Phase1 hdr;
  if not packet.walked then begin
    packet.walked <- true;
    sim.phase1_packets <- sim.phase1_packets + 1;
    Metrics.Counter.incr c_phase1_packets
  end;
  forward sim t packet ~from_:at ~to_:first_hop

and handle_phase1 sim t packet hdr ~at ~from =
  let reference =
    match from with Some f -> f | None -> assert false
  in
  record_failures sim hdr at;
  if hdr.walk_hops > (4 * Graph.n_links sim.g) + 4 then
    drop sim t Recovery_impossible
  else
    match sweep_next sim hdr ~at ~reference with
    | None -> drop sim t Recovery_impossible
    | Some (next, link) ->
        if at = hdr.rec_init && next = hdr.first_hop then begin
          (* cycle closed: install the view if this is the first packet
             home, then source-route *)
          let ready =
            match Hashtbl.find_opt sim.sessions at with
            | Some (ep, (Ready _ as r)) when ep = sim.cur -> r
            | _ -> install_ready sim at hdr.failed
          in
          packet.mode <- Default;
          dispatch_recovered sim t packet ~at ~ready
        end
        else begin
          update_cross sim hdr link;
          hdr.walk_hops <- hdr.walk_hops + 1;
          forward sim t packet ~from_:at ~to_:next
        end

and dispatch_recovered sim t packet ~at ~ready =
  match recovery_route ready packet.dst with
  | None -> drop sim t Unreachable_in_view
  | Some route -> (
      (* route = at :: rest *)
      match route with
      | _ :: next :: rest ->
          (* the arriving router consumes its own entry *)
          packet.mode <- Sourced rest;
          forward sim t packet ~from_:at ~to_:next
      | _ -> deliver sim t packet)

and handle_sourced sim t packet remaining ~at =
  match remaining with
  | [] -> deliver sim t packet (* defensive; at = dst is caught earlier *)
  | next :: rest -> (
      match Graph.find_link sim.g at next with
      | None -> assert false
      | Some link ->
          if actually_unreachable sim t next link then
            if observably_unreachable sim t next link && sim.config.rtr_enabled
            then begin
              (* Sec. III-E: the router where the source route breaks
                 becomes a new recovery initiator for this packet. *)
              packet.mode <- Default;
              start_or_join_recovery sim t packet ~at ~trigger:next
            end
            else drop sim t Missed_failure
          else begin
            packet.mode <- Sourced rest;
            forward sim t packet ~from_:at ~to_:next
          end)

(* --- driver -------------------------------------------------------- *)

let build_epochs cache g config damage =
  let eras =
    (config.t_fail, damage)
    :: List.stable_sort
         (fun (a, _) (b, _) -> Float.compare a b)
         config.episodes
  in
  let n_links = Graph.n_links g in
  let prev = ref None in
  List.map
    (fun (e_start, e_damage) ->
      let e_since = Array.make n_links infinity in
      for l = 0 to n_links - 1 do
        if Damage.link_failed e_damage l then
          e_since.(l) <-
            (match !prev with
            | Some p when Float.is_finite p.(l) -> p.(l)
            | _ -> e_start)
      done;
      prev := Some e_since;
      {
        e_start;
        e_damage;
        e_post = Topo_cache.post_table cache e_damage;
        e_convergence = Convergence.compute config.igp g e_damage;
        e_since;
      })
    eras
  |> Array.of_list

let run topo damage config =
  Trace.with_ "netsim.run"
    ~attrs:
      [
        ("flows", string_of_int (List.length config.flows));
        ("rtr_enabled", string_of_bool config.rtr_enabled);
        ("episodes", string_of_int (List.length config.episodes));
      ]
  @@ fun () ->
  let g = Rtr_topo.Topology.graph topo in
  let cache = Topo_cache.shared topo in
  let sim =
    {
      topo;
      g;
      config;
      pre = Topo_cache.table cache;
      epochs = build_epochs cache g config damage;
      cur = 0;
      queue = Event_queue.create ();
      sessions = Hashtbl.create 16;
      generated = 0;
      delivered = 0;
      phase1_packets = 0;
      delays = [];
      drops = Hashtbl.create 8;
      n_dropped = 0;
      buckets = Hashtbl.create 64;
    }
  in
  (* Traffic: evenly spaced packets per flow.  Sources destroyed by the
     failure stop generating (the paper ignores dead-source cases). *)
  let next_id = ref 0 in
  List.iter
    (fun flow ->
      if flow.rate_pps > 0.0 && flow.src <> flow.dst then begin
        let period = 1.0 /. flow.rate_pps in
        let t = ref 0.0 in
        while !t < config.t_end do
          let alive =
            (not (failure_active sim !t))
            || Damage.node_ok (epoch_at sim !t).e_damage flow.src
          in
          if alive then begin
            let packet =
              {
                id = !next_id;
                src = flow.src;
                dst = flow.dst;
                created = !t;
                mode = Default;
                walked = false;
                ttl = ttl_initial;
              }
            in
            incr next_id;
            sim.generated <- sim.generated + 1;
            Metrics.Counter.incr c_generated;
            Event_queue.add sim.queue ~time:!t
              (Arrival { packet; at = flow.src; from = None })
          end;
          t := !t +. period
        done
      end)
    config.flows;
  Metrics.Gauge.set_max g_queue_depth
    (float_of_int (Event_queue.length sim.queue));
  let rec loop () =
    match Event_queue.pop sim.queue with
    | None -> ()
    | Some (t, Arrival { packet; at; from }) ->
        (* t_end bounds generation; packets already in flight drain
           fully so every packet ends up delivered or dropped *)
        Metrics.Counter.incr c_events;
        set_now sim t;
        handle sim t packet ~at ~from;
        Metrics.Gauge.set_max g_queue_depth
          (float_of_int (Event_queue.length sim.queue));
        loop ()
  in
  loop ();
  let timeline =
    Hashtbl.fold (fun k (d, x) acc -> (k, (!d, !x)) :: acc) sim.buckets []
    |> List.sort compare
    |> List.map (fun (k, (d, x)) -> (float_of_int k *. bucket_width, d, x))
  in
  {
    generated = sim.generated;
    delivered = sim.delivered;
    dropped = sim.n_dropped;
    drops_by_reason =
      Hashtbl.fold (fun r n acc -> (r, !n) :: acc) sim.drops []
      |> List.sort compare;
    mean_delay_s =
      (match sim.delays with
      | [] -> 0.0
      | ds -> List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds));
    max_delay_s = List.fold_left Float.max 0.0 sim.delays;
    phase1_packets = sim.phase1_packets;
    timeline;
  }
