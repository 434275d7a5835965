(* rmap: the recovery-map service, unit = query.

   Set-up compiles a dense AS's artifact — every single-link failure
   plus a 7x7 grid of discs at two radii — through [Compile.run], loads
   it with [Store.of_string] and wraps it in [Service.create].  The
   timed phase is a closed loop of [Service.query] from one caller,
   each call timed with a monotonic ns clock.  Almost every query is a
   hit; one in [miss_every] is a miss, which the reactive fallback
   serves ([Compile.eval_links]: one topology, many link sets — the RTR
   kernel the other way round from repro). *)

open Common
module Enum = Rtr_rmap.Enum
module Compile = Rtr_rmap.Compile
module Store = Rtr_rmap.Store
module Service = Rtr_rmap.Service
module Signature = Rtr_rmap.Signature
module Topo_cache = Rtr_sim.Topo_cache

let as_name = "AS3549"

(* A round is [n_queries] queries: the seed's hits, with one of the
   round's own misses in every [miss_every]-th slot.  A miss costs
   hundreds of hits and misses differ a lot from one another, so each
   of the [sets] rounds of a pass brings fresh ones. *)
let n_queries = 131_072
let miss_every = 1024
let sets = 32
let block_size = 32_768

let enum_config =
  {
    Enum.default with
    Enum.singles = true;
    grid_cols = 7;
    grid_rows = 7;
    radii = [ 150.; 250. ];
  }

type query = {
  links : int list;
  initiator : int;
  trigger : int;
  dst : int;
  case : int;  (** hit: the artifact's case index; miss: -1 *)
  mutable expect : Store.case option;
      (** miss: the direct [eval_links] answer, computed on first use *)
}

type state = {
  topo : Rtr_topo.Topology.t;
  artifact : string;
  store : Store.t;
  service : Service.t;
}

let setup () =
  let topo = Isp.load_by_name as_name in
  let r =
    Spans.with_ "compile.run" (fun () -> Compile.run ~jobs:1 topo enum_config)
  in
  let store =
    Spans.with_ "store.of_string" (fun () -> Store.of_string r.Compile.artifact)
    |> Result.get_ok
  in
  let service = Service.create ~topo store |> Result.get_ok in
  { topo; artifact = r.Compile.artifact; store; service }

(* The queries, drawn from [seed]: a hit names a stored case of a
   stored signature; a miss takes such a case and adds one link absent
   from the signature, so the case still exists (its initiator stays
   up and its trigger link stays down) but the signature is not in the
   artifact.  Removing a link instead can leave a query that names no
   recovery case at all.

   A miss costs about as much as its signature has failed links, so
   miss sets are stratified: the [j]-th miss of a set draws its slot
   from the [j]-th of [n] equal slices of the slots ordered by
   signature size ([by_size]).  Every set then has the same mix of
   small and large failures, and the seed picks only within slices. *)
let queries st slot_links by_size ~seed ~n ~miss =
  let rng = Random.State.make [| seed; 0x524d4150 |] in
  let store = st.store in
  let n_links = Store.n_links store in
  let slots = Array.length by_size in
  let draw j =
    let slot =
      if miss then
        let lo = j * slots / n and hi = (j + 1) * slots / n in
        by_size.(lo + Random.State.int rng (max 1 (hi - lo)))
      else Random.State.int rng slots
    in
    let first, count = Store.case_range store slot in
    let c = first + Random.State.int rng count in
    {
      links = slot_links.(slot);
      initiator = Store.case_initiator store c;
      trigger = Store.case_trigger store c;
      dst = Store.case_dst store c;
      case = c;
      expect = None;
    }
  in
  let rec miss_of q =
    let l = Random.State.int rng n_links in
    let links = l :: q.links in
    if List.mem l q.links
       || Store.find_slot store (Signature.of_links ~n_links links) >= 0
    then miss_of q
    else { q with links; case = -1 }
  in
  Array.init n (fun j -> if miss then miss_of (draw j) else draw j)

let expected st table q =
  match q.expect with
  | Some _ as e -> e
  | None ->
      q.expect <-
        Array.find_opt
          (fun (k : Store.case) ->
            k.Store.initiator = q.initiator && k.Store.trigger = q.trigger
            && k.Store.dst = q.dst)
          (Compile.eval_links st.topo table q.links);
      q.expect

let same_path store c (path : int array) =
  let n = Array.length path in
  let rec from j =
    j = n || (path.(j) = Store.case_path_node store c j && from (j + 1))
  in
  n = Store.case_path_len store c && from 0

(* Checks run between the timed calls; a passing hit check allocates
   nothing, so it adds no minor collections to the calls it sits
   between. *)
let check st table q (reply : (Service.reply, string) result) =
  match reply with
  | Error e -> Bench.fail ("rmap: query failed: " ^ e)
  | Ok r when q.case >= 0 ->
      let c = q.case in
      if
        not
          (r.Service.from_artifact
          && r.Service.kind = Store.case_kind st.store c
          && r.Service.cost = Store.case_cost st.store c
          && r.Service.true_cost = Store.case_true_cost st.store c
          && same_path st.store c r.Service.path)
      then Bench.fail (Printf.sprintf "rmap: hit differs from stored case %d" c)
  | Ok r -> (
      match expected st table q with
      | None -> Bench.fail "rmap: a miss names no recovery case"
      | Some k ->
          Bench.check
            ((not r.Service.from_artifact)
            && r.Service.kind = k.Store.kind
            && r.Service.cost = k.Store.cost
            && r.Service.true_cost = k.Store.true_cost
            && r.Service.path = k.Store.path)
            (fun () -> "rmap: miss differs from a direct eval_links answer"))

(* The traced run splits [Service.query] into its layers by replaying
   the queries through them, each call timed on its own. *)
let replay st qs misses =
  let store = st.store and n_links = Store.n_links st.store in
  let n = min 16_384 (Array.length qs) in
  let t_sig = Array.make n 0. and t_find = Array.make n 0. in
  let t_idx = Host.Buf.create () in
  Spans.with_ "replay.service" (fun () ->
      for i = 0 to n - 1 do
        let q = qs.(i) in
        let t0 = Host.now_ns () in
        let s = Signature.of_links ~n_links q.links in
        let t1 = Host.now_ns () in
        let slot = Store.find_slot store s in
        let t2 = Host.now_ns () in
        t_sig.(i) <- float_of_int (t1 - t0);
        t_find.(i) <- float_of_int (t2 - t1);
        if slot >= 0 then begin
          let t3 = Host.now_ns () in
          let c =
            Store.case_index store ~slot ~initiator:q.initiator
              ~trigger:q.trigger ~dst:q.dst
          in
          Host.Buf.push t_idx (float_of_int (Host.now_ns () - t3));
          Bench.check (c = q.case) (fun () ->
              "rmap: case_index disagrees with the query")
        end
      done);
  let table = Topo_cache.table (Topo_cache.shared st.topo) in
  let t_eval = Host.Buf.create () in
  let slowest = ref (0., 0, 0) in
  Spans.with_ "replay.eval_links" (fun () ->
      Array.iter
        (fun q ->
          let t0 = Host.now_ns () in
          let cases = Compile.eval_links st.topo table q.links in
          let dt = float_of_int (Host.now_ns () - t0) in
          Host.Buf.push t_eval dt;
          let d, _, _ = !slowest in
          if dt > d then
            slowest := (dt, List.length q.links, Array.length cases))
        misses);
  ignore
    (Spans.with_ "enum.enumerate" (fun () -> Enum.enumerate st.topo enum_config));
  let p50 b = Bench.pct (Host.Buf.to_array b) 0.5 in
  Bench.time "signature.of_links_ns_p50" (Host.median t_sig);
  Bench.time "store.find_ns_p50" (Host.median t_find);
  Bench.time "store.case_index_ns_p50" (p50 t_idx);
  Bench.time "compile.eval_links_us_p50" (p50 t_eval /. 1e3);
  Bench.time "enum.enumerate_s" (Spans.total_ns "enum.enumerate" /. 1e9);
  let d, links, cases = !slowest in
  [
    ( "slowest_miss",
      Printf.sprintf "%.0f us raw: %d failed links, %d recovery cases recomputed"
        (d /. 1e3) links cases );
  ]

let run ~seed ~seconds =
  let st = (Bench.setup ~sets:3 (fun _ -> setup ())).(2) in
  let table = Topo_cache.table (Topo_cache.shared st.topo) in
  let slot_links =
    Array.init (Store.n_scenarios st.store) (fun s ->
        Signature.to_links (Store.signature st.store s))
  in
  let by_size = Array.init (Store.n_scenarios st.store) Fun.id in
  Array.stable_sort
    (fun a b -> compare (List.length slot_links.(a)) (List.length slot_links.(b)))
    by_size;
  let hits = queries st slot_links by_size ~seed ~n:n_queries ~miss:false in
  let misses =
    Array.init sets (fun k ->
        queries st slot_links by_size ~seed:(Bench.sub_seed ~seed (k + 1))
          ~n:(n_queries / miss_every) ~miss:true)
  in
  let hist = Hist.create () and miss_ns = Host.Buf.create () in
  let words = ref 0. and n_hits = ref 0 in
  let round i k =
    for b = 0 to (n_queries / block_size) - 1 do
      Spans.with_ "service.query" (fun () ->
          let spent = ref 0 in
          for p = b * block_size to ((b + 1) * block_size) - 1 do
            let q =
              if p mod miss_every = miss_every - 1 then
                misses.(k).(p / miss_every)
              else hits.(p)
            in
            let w0 = Gc.minor_words () in
            let t0 = Host.now_ns () in
            let r =
              Service.query st.service ~links:q.links ~initiator:q.initiator
                ~trigger:q.trigger ~dst:q.dst
            in
            let dt = Host.now_ns () - t0 in
            let w = Gc.minor_words () -. w0 in
            spent := !spent + dt;
            if i >= 0 then begin
              if q.case >= 0 then begin
                Hist.add hist dt;
                if i = 0 then begin
                  words := !words +. w;
                  incr n_hits
                end
              end
              else Host.Buf.push miss_ns (float_of_int dt)
            end;
            check st table q r
          done;
          Bench.account (float_of_int !spent));
      Bench.add_items block_size;
      Bench.probe_point ()
    done
  in
  let elapsed = Bench.run_rounds ~seconds ~sets round in
  Bench.time "hit_us_p50" (Hist.quantile hist 0.5 /. 1e3);
  Bench.time "hit_us_p99" (Hist.quantile hist 0.99 /. 1e3);
  let m = Host.Buf.to_array miss_ns in
  Bench.time "miss_us_p50" (Bench.pct m 0.5 /. 1e3);
  Bench.time "miss_us_p99" (Bench.pct m 0.99 /. 1e3);
  Bench.set "service.words_per_hit" (!words /. float_of_int (max 1 !n_hits));
  List.iter
    (fun c -> Bench.set c (float_of_int (Bench.count c)))
    [ "rmap.lookup_hits"; "rmap.lookup_misses" ];
  Bench.set "store.bytes" (float_of_int (Store.bytes st.store));
  let median_s span = Host.median (Spans.durations span) /. 1e9 in
  let extra =
    if Bench.traced () then begin
      let compile_s = median_s "compile.run" in
      Bench.time "compile.run_s" compile_s;
      Bench.rate "compile.cases_per_s"
        (float_of_int (Store.n_cases st.store) /. compile_s);
      Bench.time "store.of_string_s" (median_s "store.of_string");
      replay st hits misses.(0)
    end
    else []
  in
  ( elapsed,
    n_queries,
    [
      ("hit_samples", string_of_int hist.Hist.n);
      ("miss_samples", string_of_int (Host.Buf.length miss_ns));
      ( "artifact",
        Printf.sprintf "%d scenarios, %d cases, %d bytes, fnv64 %s"
          (Store.n_scenarios st.store) (Store.n_cases st.store)
          (Store.bytes st.store) (digest st.artifact) );
    ]
    @ extra )
