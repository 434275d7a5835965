module Graph = Rtr_graph.Graph
module Damage = Rtr_failure.Damage
module Route_table = Rtr_routing.Route_table
module Topo_cache = Rtr_routing.Topo_cache
module Delay = Rtr_routing.Delay
module Convergence = Rtr_igp.Convergence
module Phase1 = Rtr_core.Phase1
module Phase2 = Rtr_core.Phase2

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

type mode =
  | Default
  | Phase1 of Phase1.walker  (** the phase-1 header *)
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
   only what headers brought home.  A collecting session remembers the
   dead next hop its walk swept from, so every packet that joins it
   walks the same cycle. *)
type session =
  | Collecting of { trigger : Graph.node }
  | Ready of Phase2.t

type event = Arrival of { packet : packet; at : Graph.node }

type sim = {
  topo : Rtr_topo.Topology.t;
  g : Graph.t;
  config : config;
  damage : Damage.t;
  pre : Route_table.t;
  post : Route_table.t;
  convergence : Convergence.t;
  queue : event Event_queue.t;
  sessions : (Graph.node, session) Hashtbl.t;  (** keyed by initiator *)
  (* metrics *)
  mutable generated : int;
  mutable delivered : int;
  mutable phase1_packets : int;
  mutable delays : float list;
  drops : (drop_reason, int ref) Hashtbl.t;
  mutable n_dropped : int;
  buckets : (int, int ref * int ref) Hashtbl.t;
}

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

(* What a router can locally know at time [t]: failures exist from
   [t_fail] but are only observable once they have lasted the
   detection hold-down. *)
let failure_active sim t = t >= sim.config.t_fail

let observably_unreachable sim t v link =
  Damage.neighbor_unreachable sim.damage v link
  && t >= sim.config.t_fail +. sim.config.igp.Rtr_igp.Igp_config.detection_s

let actually_unreachable sim t v link =
  failure_active sim t && Damage.neighbor_unreachable sim.damage v link

let converged sim t u =
  let c = sim.config.t_fail +. Convergence.converged_at sim.convergence u in
  Float.is_finite c && t >= c

let ttl_initial = 255

let forward sim t packet ~to_ =
  packet.ttl <- packet.ttl - 1;
  if packet.ttl <= 0 then drop sim t Ttl_expired
  else
    Event_queue.add sim.queue
      ~time:(t +. Delay.per_hop_s)
      (Arrival { packet; at = to_ })

(* Phase 2, from header contents plus the initiator's own adjacencies
   only. *)
let install_ready sim initiator collected =
  let phase2 =
    Phase2.create sim.topo sim.damage ~initiator ~removed:collected
  in
  Hashtbl.replace sim.sessions initiator (Ready phase2);
  phase2

(* --- per-arrival dispatch ----------------------------------------- *)

let rec handle sim t packet ~at =
  if failure_active sim t && Damage.node_failed sim.damage at then
    (* the router died while the packet was in flight *)
    drop sim t Blackhole
  else if at = packet.dst then deliver sim t packet
  else
    match packet.mode with
    | Default -> handle_default sim t packet ~at
    | Phase1 walker -> handle_phase1 sim t packet walker ~at
    | Sourced remaining -> handle_sourced sim t packet remaining ~at

and handle_default sim t packet ~at =
  if converged sim t at then
    (* post-convergence FIB: correct by construction *)
    match Route_table.next_hop sim.post ~src:at ~dst:packet.dst with
    | None -> drop sim t No_route
    | Some v -> forward sim t packet ~to_:v
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
        else forward sim t packet ~to_:v
    | _ -> drop sim t No_route

and start_or_join_recovery sim t packet ~at ~trigger =
  match Hashtbl.find_opt sim.sessions at with
  | Some (Ready phase2) -> dispatch_recovered sim t packet phase2
  | session -> (
      let trigger =
        match session with
        | Some (Collecting c) -> c.trigger
        | _ -> trigger (* become a recovery initiator *)
      in
      match Phase1.start sim.topo sim.damage ~initiator:at ~trigger with
      | walker, Phase1.Hop s ->
          Hashtbl.replace sim.sessions at (Collecting { trigger });
          packet.mode <- Phase1 walker;
          if not packet.walked then begin
            packet.walked <- true;
            sim.phase1_packets <- sim.phase1_packets + 1;
            Metrics.Counter.incr c_phase1_packets
          end;
          forward sim t packet ~to_:s.Phase1.chosen
      | _, Phase1.Stop _ ->
          (* completely cut off: the local view is all there is *)
          dispatch_recovered sim t packet (install_ready sim at []))

and handle_phase1 sim t packet walker ~at =
  match Phase1.step walker sim.damage with
  | Phase1.Hop s -> forward sim t packet ~to_:s.Phase1.chosen
  | Phase1.Stop Phase1.Completed ->
      (* cycle closed: install the view if this is the first packet
         home, then source-route *)
      let phase2 =
        match Hashtbl.find_opt sim.sessions at with
        | Some (Ready p) -> p
        | _ -> install_ready sim at (Phase1.failed_links walker)
      in
      packet.mode <- Default;
      dispatch_recovered sim t packet phase2
  | Phase1.Stop _ -> drop sim t Recovery_impossible

and dispatch_recovered sim t packet phase2 =
  match Phase2.recovery_path phase2 ~dst:packet.dst with
  | None -> drop sim t Unreachable_in_view
  | Some path -> (
      match Rtr_graph.Path.nodes path with
      | _ :: next :: rest ->
          (* the arriving router consumes its own entry *)
          packet.mode <- Sourced rest;
          forward sim t packet ~to_:next
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
            forward sim t packet ~to_:next
          end)

(* --- driver -------------------------------------------------------- *)

let run topo damage config =
  Trace.with_ "netsim.run"
    ~attrs:
      [
        ("flows", string_of_int (List.length config.flows));
        ("rtr_enabled", string_of_bool config.rtr_enabled);
      ]
  @@ fun () ->
  let g = Rtr_topo.Topology.graph topo in
  let cache = Topo_cache.shared topo in
  let sim =
    {
      topo;
      g;
      config;
      damage;
      pre = Topo_cache.table cache;
      post = Topo_cache.post_table cache damage;
      convergence = Convergence.compute config.igp g damage;
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
            || Damage.node_ok damage flow.src
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
              (Arrival { packet; at = flow.src })
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
    | Some (t, Arrival { packet; at }) ->
        (* t_end bounds generation; packets already in flight drain
           fully so every packet ends up delivered or dropped *)
        Metrics.Counter.incr c_events;
        handle sim t packet ~at;
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
