let () =
  Alcotest.run "rtr"
    [
      ("geom.point", Test_point.suite);
      ("geom.angle", Test_angle.suite);
      ("geom.segment", Test_segment.suite);
      ("geom.circle", Test_circle.suite);
      ("geom.polygon", Test_polygon.suite);
      ("graph.pqueue", Test_pqueue.suite);
      ("graph.graph", Test_graph.suite);
      ("graph.path", Test_path.suite);
      ("graph.view", Test_view.suite);
      ("graph.bfs", Test_bfs.suite);
      ("graph.components", Test_components.suite);
      ("graph.dijkstra", Test_dijkstra.suite);
      ("graph.workspace", Test_workspace.suite);
      ("util.rng", Test_rng.suite);
      ("util.pool", Test_pool.suite);
      ("topo.embedding", Test_embedding.suite);
      ("topo.crossings", Test_crossings.suite);
      ("topo.generator", Test_generator.suite);
      ("topo.isp", Test_isp.suite);
      ("topo.rocketfuel", Test_rocketfuel.suite);
      ("paper.fig6", Test_paper_example.suite);
      ("failure.area", Test_area.suite);
      ("failure.damage", Test_damage.suite);
      ("routing.route_table", Test_route_table.suite);
      ("routing.header_delay", Test_header_delay.suite);
      ("routing.source_route", Test_source_route.suite);
      ("igp.convergence", Test_igp.suite);
      ("core.sweep", Test_sweep.suite);
      ("core.phase1", Test_phase1.suite);
      ("core.phase2", Test_phase2.suite);
      ("core.rtr", Test_rtr.suite);
      ("core.multi_area", Test_multi_area.suite);
      ("core.bidir", Test_bidir.suite);
      ("baselines.fcp", Test_fcp.suite);
      ("baselines.mrc", Test_mrc.suite);
      ("sim.stats_cdf", Test_stats_cdf.suite);
      ("sim.scenario", Test_scenario.suite);
      ("sim.runner", Test_runner.suite);
      ("sim.topo_cache", Test_topo_cache.suite);
      ("routing.topo_cache", Test_topo_cache.post_suite);
      ("sim.experiments", Test_experiments.suite);
      ("sim.stream", Test_stream.suite);
      ("sim.parallel", Test_parallel.suite);
      ("viz.svg", Test_svg.suite);
      ("viz.chart", Test_chart.suite);
      ("sim.report", Test_report.suite);
      ("edge_cases", Test_edge_cases.suite);
      (* Alcotest cuts printed test names at a column set by the longest
         suite label.  This label is the longest, at 21 characters; a
         longer or shorter maximum moves the cut and renames every
         truncated test in the printed results. *)
      ("edge_cases.heap_costs", Test_edge_cases.heap_costs_suite);
      ("des.netsim", Test_netsim.suite);
      ("des.flowsim", Test_flowsim.suite);
      ("obs", Test_obs.suite);
      ("tools.json", Test_json_tools.suite);
      ("rmap", Test_rmap.suite);
      ("check.core", Test_check.suite);
      ("check.replay", Test_replay.suite);
      ("golden", Test_golden.suite);
    ]
