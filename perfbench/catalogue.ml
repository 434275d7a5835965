(* Every metric the benchmark reports, with its unit.  BENCHMARK.json
   lists the same names ([main.exe --list-metrics] prints them); a
   workload that does not run a layer reports 0 for that layer's
   metrics.  [Count] metrics are exact work counts: they must repeat
   bit for bit across runs at one seed. *)

type kind = Count | Measure

let end_to_end =
  [
    ("setup_s", "s");
    ("items_per_s", "1/s");
    (* peak_rss_mb is measured by run.py, from outside the process *)
  ]

let schemes = [ "none"; "rtr"; "fcp"; "mrc"; "randroute" ]

let ases =
  [ "AS209"; "AS701"; "AS1239"; "AS3320"; "AS3549"; "AS3561"; "AS4323"; "AS7018" ]

(* Rtr_obs counters reported per item of the workload's unit. *)
let per_item_counters =
  [
    "phase1.hops_walked";
    "sweep.selects";
    "phase2.sp_calcs";
    "phase2.cache_hits";
    "pqueue.pop";
    "spt.from_scratch";
    "spt.ws_reuse";
    "phase2.spt_cloned";
    "phase2.spt_fresh";
    "spt.repairs";
    "spt.repaired_nodes";
  ]

(* Per-layer timings also reported raw, as [raw.<name>]. *)
let raw_timings =
  [
    "pipeline.generate_s";
    "runner.run_scenario_s";
    "mrc.build_s";
    "flowsim.context_s";
    "flowsim.finish_s";
    "enum.enumerate_s";
    "compile.run_s";
    "store.of_string_s";
    "shard_store.resume_s";
    "shard_store.load_s";
    "experiments.reduce_shards_s";
    "shard_store.codec_s";
    "mrc.rebuild_s";
  ]
  @ List.map (fun s -> "flowsim.eval_slice_s." ^ s) schemes

(* Which way is better: rates and coverage up, everything else (time,
   work, allocation, failures) down. *)
let better (name, unit, _) =
  if unit = "1/s" || unit = "MB/s" || name = "trace.attributed_frac" then "higher"
  else "lower"

let per_layer =
  [
    (* host and audit *)
    ("host.ref_us", "us", Measure);
    ("raw.setup_s", "s", Measure);
    ("raw.items_per_s", "1/s", Measure);
    ("failed_frac", "ratio", Measure);
    ("trace.attributed_frac", "ratio", Measure);
    (* repro *)
    ("pipeline.generate_s", "s", Measure);
    ("experiments.scenarios_generated", "count", Count);
    ("runner.run_scenario_s", "s", Measure);
    ("runner.scenario_us_p50", "us", Measure);
    ("runner.scenario_us_p90", "us", Measure);
    ("runner.words_per_case", "words", Count);
    ("rtr.start_us_p50", "us", Measure);
    ("rtr.recover_us_p50", "us", Measure);
    ("fcp.run_us_p50", "us", Measure);
    ("mrc.recover_us_p50", "us", Measure);
    ("mrc.build_s", "s", Measure);
  ]
  @ List.map (fun c -> (c, "1/item", Count)) per_item_counters
  @ [
      (* flows *)
      ("flowsim.context_s", "s", Measure);
      ("flowsim.finish_s", "s", Measure);
      ("flowsim.words_per_flow", "words", Count);
    ]
  @ List.map (fun s -> ("flowsim.eval_slice_s." ^ s, "s", Measure)) schemes
  @ List.map (fun a -> ("flowsim.flows_per_s." ^ a, "1/s", Measure)) ases
  @ [
      (* rmap *)
      ("hit_us_p50", "us", Measure);
      ("hit_us_p99", "us", Measure);
      ("miss_us_p50", "us", Measure);
      ("miss_us_p99", "us", Measure);
      ("enum.enumerate_s", "s", Measure);
      ("compile.run_s", "s", Measure);
      ("compile.cases_per_s", "1/s", Measure);
      ("store.of_string_s", "s", Measure);
      ("store.bytes", "bytes", Count);
      ("signature.of_links_ns_p50", "ns", Measure);
      ("store.find_ns_p50", "ns", Measure);
      ("store.case_index_ns_p50", "ns", Measure);
      ("service.words_per_hit", "words", Count);
      ("rmap.lookup_hits", "count", Count);
      ("rmap.lookup_misses", "count", Count);
      ("compile.eval_links_us_p50", "us", Measure);
      (* resume *)
      ("shard_store.resume_s", "s", Measure);
      ("shard_store.resume_mb_per_s", "MB/s", Measure);
      ("shard_store.append_us_p50", "us", Measure);
      ("shard_store.load_s", "s", Measure);
      ("shard_store.load_mb_per_s", "MB/s", Measure);
      ("experiments.reduce_shards_s", "s", Measure);
      ("shard_store.codec_s", "s", Measure);
      ("mrc.rebuild_s", "s", Measure);
      ("checkpoint.resumed", "count", Count);
      ("checkpoint.torn_tail", "count", Count);
      ("shard_store.words_per_record", "words", Count);
    ]
  @ List.map (fun n -> ("raw." ^ n, "s", Measure)) raw_timings
