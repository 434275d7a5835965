(* Live recovery: the paper's Sec. I motivation, measured packet by
   packet.  A discrete-event simulation pushes real packets through an
   ISP backbone while a large-scale failure hits and the IGP slowly
   reconverges; RTR on vs off decides whether the convergence window
   black-holes the affected flows or not.

   Run with: dune exec examples/live_recovery.exe [-- AS209 [seed]] *)

module Graph = Rtr_graph.Graph
module Damage = Rtr_failure.Damage
module Netsim = Rtr_des.Netsim

let () =
  let as_name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "AS209" in
  let seed =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 11
  in
  let topo = Rtr_topo.Isp.load_by_name as_name in
  let g = Rtr_topo.Topology.graph topo in
  let rng = Rtr_util.Rng.make seed in
  let area = Rtr_failure.Area.random_disc rng ~r_min:200.0 ~r_max:300.0 () in
  let damage = Damage.apply topo area in
  Format.printf "Backbone %s; failure %a -> %a@." as_name Rtr_failure.Area.pp
    area Damage.pp damage;

  (* Every live pair talks at a modest rate; the failure hits at 1 s
     and the classic IGP needs ~7 s to reconverge. *)
  let n = Graph.n_nodes g in
  let flows = ref [] in
  for _ = 1 to 40 do
    let src = Rtr_util.Rng.int rng n and dst = Rtr_util.Rng.int rng n in
    if src <> dst then
      flows := { Netsim.src; dst; rate_pps = 50.0 } :: !flows
  done;
  let config rtr_enabled =
    {
      Netsim.igp = Rtr_igp.Igp_config.classic;
      rtr_enabled;
      t_fail = 1.0;
      t_end = 9.0;
      flows = !flows;
    }
  in
  let show name (s : Netsim.stats) =
    Format.printf "@.%s:@." name;
    Format.printf "  generated %d, delivered %d (%.1f%%), dropped %d@."
      s.Netsim.generated s.Netsim.delivered
      (100.0 *. float_of_int s.Netsim.delivered /. float_of_int s.Netsim.generated)
      s.Netsim.dropped;
    List.iter
      (fun (r, k) -> Format.printf "    %a: %d@." Netsim.pp_drop_reason r k)
      s.Netsim.drops_by_reason;
    Format.printf "  mean delay %.2f ms, max %.2f ms; %d packets walked \
                   phase 1@."
      (1000.0 *. s.Netsim.mean_delay_s)
      (1000.0 *. s.Netsim.max_delay_s)
      s.Netsim.phase1_packets
  in
  let off = Netsim.run topo damage (config false) in
  let on = Netsim.run topo damage (config true) in
  show "IGP alone (no recovery)" off;
  show "IGP + RTR" on;
  let saved = on.Netsim.delivered - off.Netsim.delivered in
  Format.printf
    "@.RTR carried %d packets through the convergence window that the IGP \
     alone dropped@."
    saved;

  (* Loss over time, 0.5 s bins. *)
  let bin t = int_of_float (t /. 0.5) in
  let acc stats =
    let drops = Array.make 19 0 in
    List.iter
      (fun (t, _, d) ->
        let b = bin t in
        if b >= 0 && b < Array.length drops then drops.(b) <- drops.(b) + d)
      stats.Netsim.timeline;
    drops
  in
  let d_off = acc off and d_on = acc on in
  Format.printf "@.drops per 0.5 s (failure at t=1.0 s):@.";
  Format.printf "  %-8s %8s %8s@." "t" "IGP" "IGP+RTR";
  Array.iteri
    (fun i x ->
      if x > 0 || d_on.(i) > 0 then
        Format.printf "  %-8.1f %8d %8d@." (0.5 *. float_of_int i) x d_on.(i))
    d_off
