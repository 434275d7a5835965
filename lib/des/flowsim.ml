module Graph = Rtr_graph.Graph
module Damage = Rtr_failure.Damage
module Route_table = Rtr_routing.Route_table
module Topo_cache = Rtr_routing.Topo_cache
module Convergence = Rtr_igp.Convergence
module Fcp = Rtr_baselines.Fcp
module Mrc = Rtr_baselines.Mrc
module Randroute = Rtr_baselines.Randroute
module Rtr = Rtr_core.Rtr
module Path = Rtr_graph.Path
module Metrics = Rtr_obs.Metrics
module Trace = Rtr_obs.Trace

let c_flows = Metrics.counter "flowsim.flows"
let g_max_load = Metrics.gauge "flowsim.max_load"

let ensure_metrics_registered () = ()

type flow = { src : Graph.node; dst : Graph.node; rate : int }

type scheme = No_recovery | Rtr_scheme | Fcp_scheme | Mrc_scheme | Randroute_scheme

let scheme_name = function
  | No_recovery -> "none"
  | Rtr_scheme -> "rtr"
  | Fcp_scheme -> "fcp"
  | Mrc_scheme -> "mrc"
  | Randroute_scheme -> "randroute"

let scheme_of_name = function
  | "none" -> Some No_recovery
  | "rtr" -> Some Rtr_scheme
  | "fcp" -> Some Fcp_scheme
  | "mrc" -> Some Mrc_scheme
  | "randroute" -> Some Randroute_scheme
  | _ -> None

type config = {
  igp : Rtr_igp.Igp_config.t;
  scheme : scheme;
  t_fail : float;
  t_end : float;
  episodes : (float * Damage.t) list;
  seed : int;
  overload_factor : float;
}

let default_config =
  {
    igp = Rtr_igp.Igp_config.classic;
    scheme = Rtr_scheme;
    t_fail = 0.5;
    t_end = 30.0;
    episodes = [];
    seed = 7;
    overload_factor = 1.25;
  }

(* One ground-truth era, with its regime boundaries precomputed.  The
   flow engine's time model is piecewise constant per era:

     [e_start, e_det)   hold-down — routers forward on the pre-failure
                        FIBs; flows whose default path crosses the
                        damage black-hole
     [e_det, e_conv)    recovery window — broken flows are rerouted by
                        the configured scheme; this is where rerouted
                        load piles onto surviving links, so this window
                        is the congestion measurement window
     [e_conv, e_end)    converged — everything follows the era's
                        post-failure FIBs

   Unlike the per-packet engine, detection and convergence are global
   boundaries per era (the packet engine keeps them per link and per
   router); the differential oracle bounds the gap.  The three
   windows' lengths in milliseconds are the same for every flow, so
   they are quantized once here. *)
type era = {
  e_start : float;
  e_end : float;
  e_det : float;
  e_conv : float;
  e_damage : Damage.t;
  e_post : Route_table.t;
  hold_ms : int;  (* [e_start, e_det) *)
  rec_ms : int;  (* [e_det, e_conv) *)
  conv_ms : int;  (* [e_conv, e_end) *)
}

type context = {
  topo : Rtr_topo.Topology.t;
  g : Graph.t;
  config : config;
  pre : Route_table.t;  (* the topology's shared pre-failure table *)
  pre_ms : int;  (* the pre-failure window, [0, t_fail) *)
  eras : era array;
  mrc : Mrc.t option;
  rr : Randroute.t option;
}

(* Millisecond quantization of a window.  Boundaries are computed the
   same way for every flow regardless of sharding, so the products
   below stay shard-invariant. *)
let ms_between t0 t1 =
  if t1 <= t0 then 0 else int_of_float (Float.round ((t1 -. t0) *. 1000.0))

let context topo damage ?mrc config =
  let g = Rtr_topo.Topology.graph topo in
  let timeline =
    (config.t_fail, damage)
    :: List.stable_sort
         (fun (a, _) (b, _) -> Float.compare a b)
         config.episodes
  in
  let rec build = function
    | [] -> []
    | (e_start, e_damage) :: rest ->
        let e_end =
          match rest with
          | (next, _) :: _ -> Float.min next config.t_end
          | [] -> config.t_end
        in
        let conv = Convergence.compute config.igp g e_damage in
        let e_det = e_start +. config.igp.Rtr_igp.Igp_config.detection_s in
        let e_conv = e_start +. Convergence.finished_at conv in
        let e_det = Float.min e_det e_end in
        let e_conv = Float.max (Float.min e_conv e_end) e_det in
        {
          e_start;
          e_end;
          e_det;
          e_conv;
          e_damage;
          e_post = Route_table.compute (Damage.view e_damage);
          hold_ms = ms_between e_start e_det;
          rec_ms = ms_between e_det e_conv;
          conv_ms = ms_between e_conv e_end;
        }
        :: build rest
  in
  let mrc =
    match (config.scheme, mrc) with
    | Mrc_scheme, None -> Some (Mrc.build_auto g)
    | _, m -> m
  in
  let rr =
    match config.scheme with
    | Randroute_scheme -> Some (Randroute.create ~seed:config.seed g)
    | _ -> None
  in
  {
    topo;
    g;
    config;
    pre = Topo_cache.table (Topo_cache.shared topo);
    pre_ms = ms_between 0.0 (Float.min config.t_fail config.t_end);
    eras = Array.of_list (build timeline);
    mrc;
    rr;
  }

(* --- integer accumulators ------------------------------------------- *)

(* Everything merged across shards is an integer (rate sums, rate x
   millisecond products, per-link load arrays): integer addition is
   associative, so any chunking of the flow array folds to the same
   totals and reports stay byte-identical at every --jobs.  The only
   floats are ratios computed once in [finish]. *)
type acc = {
  mutable flows : int;
  mutable offered : int;  (* rate x ms *)
  mutable delivered : int;
  mutable blackholed : int;
  mutable dropped_recovery : int;
  mutable dropped_no_route : int;
  mutable broken : int;  (* flow-eras whose default path crossed the damage *)
  mutable recovered : int;  (* of those, delivered during the recovery window *)
  mutable stretch_cost : int;  (* sum of recovery route costs, recovered flow-eras *)
  mutable stretch_best : int;  (* sum of converged shortest-path costs *)
  mutable stretch_max : float;
  base_loads : int array;  (* pps per link, pre-failure window *)
  rec_loads : int array array;  (* pps per link per era, recovery window *)
  post_loads : int array;  (* pps per link, converged windows *)
}

let acc_create ctx =
  let n_links = Graph.n_links ctx.g in
  {
    flows = 0;
    offered = 0;
    delivered = 0;
    blackholed = 0;
    dropped_recovery = 0;
    dropped_no_route = 0;
    broken = 0;
    recovered = 0;
    stretch_cost = 0;
    stretch_best = 0;
    stretch_max = 0.0;
    base_loads = Array.make n_links 0;
    rec_loads = Array.init (Array.length ctx.eras) (fun _ -> Array.make n_links 0);
    post_loads = Array.make n_links 0;
  }

let merge a b =
  a.flows <- a.flows + b.flows;
  a.offered <- a.offered + b.offered;
  a.delivered <- a.delivered + b.delivered;
  a.blackholed <- a.blackholed + b.blackholed;
  a.dropped_recovery <- a.dropped_recovery + b.dropped_recovery;
  a.dropped_no_route <- a.dropped_no_route + b.dropped_no_route;
  a.broken <- a.broken + b.broken;
  a.recovered <- a.recovered + b.recovered;
  a.stretch_cost <- a.stretch_cost + b.stretch_cost;
  a.stretch_best <- a.stretch_best + b.stretch_best;
  a.stretch_max <- Float.max a.stretch_max b.stretch_max;
  let add dst src = Array.iteri (fun i v -> dst.(i) <- dst.(i) + v) src in
  add a.base_loads b.base_loads;
  Array.iteri (fun e src -> add a.rec_loads.(e) src) b.rec_loads;
  add a.post_loads b.post_loads;
  a

(* --- route-table walks ------------------------------------------------ *)

(* A table route is a chain of [next]/[link] row entries ending at the
   destination: every node with a next hop towards [dst] has a
   successor that is [dst] or has a next hop itself, so a walk that
   leaves [src] (whose entry is not [-1]) always reaches [dst].  The
   walks below add the flow's rate to a load array hop by hop instead
   of materialising the route. *)

(* Charges [rate] on every link from [src] until [stop] (or a missing
   next hop). *)
let charge next link loads rate ~src ~stop =
  let u = ref src in
  while !u <> stop && next.(!u) >= 0 do
    let l = link.(!u) in
    loads.(l) <- loads.(l) + rate;
    u := next.(!u)
  done

(* Walks the pre-failure route from [src] against an era's ground
   truth, charging [rate] on each link it crosses, and stops at [dst]
   or at the last live router before the first unreachable next hop
   (the router where the flow breaks; its next hop is the trigger).
   [src] must have a pre-failure route. *)
let walk_live next link damage loads rate ~src ~dst =
  let rec go u =
    if u = dst then u
    else
      let v = next.(u) and l = link.(u) in
      if Damage.neighbor_unreachable damage v l then u
      else begin
        loads.(l) <- loads.(l) + rate;
        go v
      end
  in
  go src

(* --- recovery schemes ------------------------------------------------ *)

(* A recovery route from its initiator on: the links in order, each
   the [Graph.find_link] of consecutive nodes, and their cost. *)
type route = { links : Graph.link_id array; cost : int }

let route_of_nodes g nodes =
  let links = Array.make (max 0 (List.length nodes - 1)) 0 in
  let rec go i cost = function
    | a :: (b :: _ as rest) -> (
        match Graph.find_link g a b with
        | Some l ->
            links.(i) <- l;
            go (i + 1) (cost + Graph.cost g l ~src:a) rest
        | None -> assert false)
    | _ -> { links; cost }
  in
  go 0 0 nodes

module Itbl = Hashtbl.Make (Int)

(* Per-slice mutable state: RTR sessions, one FCP session per era and
   recovery outcomes, keyed by era so no state is consulted across a
   transition.  Slices rebuild their own caches — recovery outcomes are
   pure functions of (era, initiator, trigger, dst), and FCP's of
   (era, initiator, dst) since [Fcp.route] never reads the trigger, so
   this only costs repeated work, never divergent results.  Keys are
   packed into one int (see [session_key], [outcome_key]). *)
type slice_caches = {
  sessions : Rtr.t Itbl.t;
  fcp : Fcp.session option array;
  outcomes : route option Itbl.t;
}

let session_key ctx era_idx ~initiator ~trigger =
  let n = Graph.n_nodes ctx.g in
  (((era_idx * n) + trigger) * n) + initiator

(* [trigger] is [-1] for outcomes that do not depend on it. *)
let outcome_key ctx era_idx ~initiator ~trigger ~dst =
  let n = Graph.n_nodes ctx.g in
  (((((era_idx * (n + 1)) + trigger + 1) * n) + initiator) * n) + dst

let rtr_session ctx caches era_idx era ~initiator ~trigger =
  let key = session_key ctx era_idx ~initiator ~trigger in
  match Itbl.find caches.sessions key with
  | s -> s
  | exception Not_found ->
      let s = Rtr.start ctx.topo era.e_damage ~initiator ~trigger () in
      Itbl.replace caches.sessions key s;
      s

let fcp_session ctx caches era_idx era =
  match caches.fcp.(era_idx) with
  | Some s -> s
  | None ->
      let s = Fcp.start ctx.topo era.e_damage in
      caches.fcp.(era_idx) <- Some s;
      s

(* RTR with Sec. III-E chaining, as the packet engine plays it: when a
   source route hits a failure phase 1 missed, the router at the break
   starts its own recovery session for the remaining journey. *)
let rtr_recover ctx caches era_idx era ~initiator ~trigger ~dst =
  let rec go u trigger depth carried_rev =
    if depth > 8 then None
    else
      let s = rtr_session ctx caches era_idx era ~initiator:u ~trigger in
      match Rtr.recover s ~dst with
      | Rtr.Recovered p ->
          Some (List.rev_append carried_rev (Path.nodes p))
      | Rtr.Unreachable_in_view -> None
      | Rtr.False_path { path; dropped_at; _ } -> (
          (* nodes walked before the break: initiator .. dropped_at *)
          let rec split acc = function
            | x :: (y :: _ as _rest) when x = dropped_at ->
                Some (acc, y) (* acc excludes dropped_at; y = dead hop *)
            | x :: rest -> split (x :: acc) rest
            | [] -> None
          in
          match split [] (Path.nodes path) with
          | Some (walked_rev, next_trigger) ->
              go dropped_at next_trigger (depth + 1)
                (walked_rev @ carried_rev)
          | None -> None)
  in
  go initiator trigger 0 []

(* The recovery route from [initiator] (the router where the flow
   broke) to [dst], starting at [initiator]. *)
let recover ctx caches ~flow_idx era_idx era ~initiator ~trigger ~dst =
  match ctx.config.scheme with
  | No_recovery -> None
  | Randroute_scheme -> (
      (* per-flow randomization: not cacheable by (initiator, dst),
         but three table lookups and a walk are cheap *)
      match ctx.rr with
      | None -> None
      | Some rr -> (
          match Randroute.reroute rr era.e_post ~flow:flow_idx ~initiator ~dst with
          | Randroute.Rerouted { nodes; _ } -> Some (route_of_nodes ctx.g nodes)
          | Randroute.No_route -> None))
  | (Rtr_scheme | Fcp_scheme | Mrc_scheme) as scheme -> (
      let key =
        outcome_key ctx era_idx ~initiator ~dst
          ~trigger:(if scheme = Fcp_scheme then -1 else trigger)
      in
      match Itbl.find caches.outcomes key with
      | r -> r
      | exception Not_found ->
          let nodes =
            match scheme with
            | Rtr_scheme ->
                rtr_recover ctx caches era_idx era ~initiator ~trigger ~dst
            | Fcp_scheme ->
                let res =
                  Fcp.route (fcp_session ctx caches era_idx era) ~initiator ~dst
                in
                if res.Fcp.delivered then Some (Path.nodes res.Fcp.journey)
                else None
            | Mrc_scheme -> (
                match ctx.mrc with
                | None -> None
                | Some mrc -> (
                    match Mrc.recover mrc era.e_damage ~initiator ~trigger ~dst with
                    | Mrc.Delivered p -> Some (Path.nodes p)
                    | Mrc.Dropped _ -> None))
            | No_recovery | Randroute_scheme -> None
          in
          let r = Option.map (route_of_nodes ctx.g) nodes in
          Itbl.replace caches.outcomes key r;
          r)

(* --- evaluation ------------------------------------------------------ *)

let eval_flow ctx acc caches ~flow_idx f =
  acc.flows <- acc.flows + 1;
  let rate = f.rate and src = f.src and dst = f.dst in
  let next = Route_table.next_row ctx.pre ~dst
  and link = Route_table.link_row ctx.pre ~dst in
  let routed = next.(src) >= 0 in
  (* pre-failure window *)
  if ctx.pre_ms > 0 then begin
    let v = rate * ctx.pre_ms in
    acc.offered <- acc.offered + v;
    if routed then begin
      acc.delivered <- acc.delivered + v;
      charge next link acc.base_loads rate ~src ~stop:dst
    end
    else acc.dropped_no_route <- acc.dropped_no_route + v
  end;
  for era_idx = 0 to Array.length ctx.eras - 1 do
    let era = ctx.eras.(era_idx) in
    let hold = rate * era.hold_ms
    and recov = rate * era.rec_ms
    and conv = rate * era.conv_ms in
    if
      era.hold_ms + era.rec_ms + era.conv_ms > 0
      && Damage.node_ok era.e_damage src
    then begin
      acc.offered <- acc.offered + hold + recov + conv;
      (* converged tail: the era's post-failure FIB *)
      if era.conv_ms > 0 then begin
        if Route_table.dist era.e_post ~src ~dst = max_int then
          acc.dropped_no_route <- acc.dropped_no_route + conv
        else begin
          acc.delivered <- acc.delivered + conv;
          charge
            (Route_table.next_row era.e_post ~dst)
            (Route_table.link_row era.e_post ~dst)
            acc.post_loads rate ~src ~stop:dst
        end
      end;
      (* pre-convergence: the pre-failure FIB against this era's truth;
         the recovery window charges the default route as it is walked *)
      if not routed then
        acc.dropped_no_route <- acc.dropped_no_route + hold + recov
      else begin
        let loads = acc.rec_loads.(era_idx) in
        let charged = if era.rec_ms > 0 then rate else 0 in
        let at = walk_live next link era.e_damage loads charged ~src ~dst in
        if at = dst then acc.delivered <- acc.delivered + hold + recov
        else begin
          acc.blackholed <- acc.blackholed + hold;
          if era.rec_ms > 0 then begin
            acc.broken <- acc.broken + 1;
            match
              recover ctx caches ~flow_idx era_idx era ~initiator:at
                ~trigger:next.(at) ~dst
            with
            | Some r ->
                (* full route: the charged default prefix src .. at (the
                   table's link for each hop is the [Graph.find_link] of
                   its ends — [Graph] has no parallel links — and the
                   prefix costs the drop in table distance), then the
                   recovery route *)
                acc.delivered <- acc.delivered + recov;
                acc.recovered <- acc.recovered + 1;
                Array.iter (fun l -> loads.(l) <- loads.(l) + rate) r.links;
                let cost =
                  Route_table.dist ctx.pre ~src ~dst
                  - Route_table.dist ctx.pre ~src:at ~dst
                  + r.cost
                in
                let best = Route_table.dist era.e_post ~src ~dst in
                if best > 0 && best < max_int then begin
                  acc.stretch_cost <- acc.stretch_cost + cost;
                  acc.stretch_best <- acc.stretch_best + best;
                  let s = float_of_int cost /. float_of_int best in
                  if s > acc.stretch_max then acc.stretch_max <- s
                end
            | None ->
                (* dropped: give back the prefix charged on the walk *)
                charge next link loads (-rate) ~src ~stop:at;
                acc.dropped_recovery <- acc.dropped_recovery + recov
          end
        end
      end
    end
  done

let eval_slice ctx flows ~lo ~hi =
  let acc = acc_create ctx in
  let caches =
    {
      sessions = Itbl.create 32;
      fcp = Array.make (Array.length ctx.eras) None;
      outcomes = Itbl.create 256;
    }
  in
  for i = lo to hi - 1 do
    let f = flows.(i) in
    if f.src <> f.dst && f.rate > 0 then
      eval_flow ctx acc caches ~flow_idx:i f
  done;
  acc

(* --- reduction -------------------------------------------------------- *)

type stats = {
  flows : int;
  offered_ratems : int;
  delivered_ratems : int;
  blackholed_ratems : int;
  dropped_recovery_ratems : int;
  dropped_no_route_ratems : int;
  delivered_frac : float;
  broken : int;
  recovered : int;
  stretch_agg : float;
  stretch_max : float;
  base_max_load : int;
  rec_max_load : int;
  post_max_load : int;
  overloaded_links : int;
  rec_link_loads : int array;
}

let array_max a = Array.fold_left max 0 a

let finish ctx acc =
  let n_links = Graph.n_links ctx.g in
  let rec_link_loads = Array.make n_links 0 in
  Array.iter
    (fun per_era ->
      for l = 0 to n_links - 1 do
        if per_era.(l) > rec_link_loads.(l) then
          rec_link_loads.(l) <- per_era.(l)
      done)
    acc.rec_loads;
  let base_max_load = array_max acc.base_loads in
  let rec_max_load = array_max rec_link_loads in
  let capacity =
    max 1
      (int_of_float
         (Float.round (ctx.config.overload_factor *. float_of_int base_max_load)))
  in
  let overloaded_links = ref 0 in
  Array.iter (fun v -> if v > capacity then incr overloaded_links) rec_link_loads;
  Metrics.Counter.add c_flows acc.flows;
  Metrics.Gauge.set_max g_max_load (float_of_int rec_max_load);
  {
    flows = acc.flows;
    offered_ratems = acc.offered;
    delivered_ratems = acc.delivered;
    blackholed_ratems = acc.blackholed;
    dropped_recovery_ratems = acc.dropped_recovery;
    dropped_no_route_ratems = acc.dropped_no_route;
    delivered_frac =
      (if acc.offered = 0 then 0.0
       else float_of_int acc.delivered /. float_of_int acc.offered);
    broken = acc.broken;
    recovered = acc.recovered;
    stretch_agg =
      (if acc.stretch_best = 0 then 1.0
       else float_of_int acc.stretch_cost /. float_of_int acc.stretch_best);
    stretch_max = acc.stretch_max;
    base_max_load;
    rec_max_load;
    post_max_load = array_max acc.post_loads;
    overloaded_links = !overloaded_links;
    rec_link_loads;
  }

let run topo damage ?mrc config flows =
  Trace.with_ "flowsim.run"
    ~attrs:
      [
        ("flows", string_of_int (Array.length flows));
        ("scheme", scheme_name config.scheme);
        ("episodes", string_of_int (List.length config.episodes));
      ]
  @@ fun () ->
  let ctx = context topo damage ?mrc config in
  finish ctx (eval_slice ctx flows ~lo:0 ~hi:(Array.length flows))

(* --- demand matrices -------------------------------------------------- *)

(* Gravity-style synthetic demand: endpoints drawn proportionally to
   node degree (hubs originate and sink more traffic), small integer
   rates.  Deterministic in (topology, seed, n). *)
let demand topo ~n ~seed =
  let g = Rtr_topo.Topology.graph topo in
  let n_nodes = Graph.n_nodes g in
  let rng = Rtr_util.Rng.make seed in
  let nodes = Array.init n_nodes (fun i -> i) in
  let weight u = float_of_int (Graph.degree g u) in
  Array.init n (fun _ ->
      let src = Rtr_util.Rng.pick_weighted rng nodes ~weight in
      let rec draw_dst tries =
        let d = Rtr_util.Rng.pick_weighted rng nodes ~weight in
        if d <> src || tries > 16 then d else draw_dst (tries + 1)
      in
      let dst = draw_dst 0 in
      let dst = if dst = src then (src + 1) mod n_nodes else dst in
      { src; dst; rate = 1 + Rtr_util.Rng.int rng 9 })
