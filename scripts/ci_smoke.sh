#!/bin/sh
# CI smoke: build, run the test suites, then exercise the observability
# path end to end — a quick bench emitting a metrics snapshot and an
# rtr_sim run emitting both a trace and a snapshot — and fail if any
# emitted artifact is not valid JSON / JSONL.  Then the gates: the
# perf-regression gate (quick-bench throughput vs the latest committed
# BENCH_*.json, see scripts/perf_gate.sh), the determinism gate
# (RTR_JOBS must not change a byte), the microbench
# hot-path gate, the recovery-map gate, the streaming-pipeline gate
# (generate | evaluate | reduce must equal the in-process run, shard
# splits and crash-resume included), the hostile-input gate (bad input
# exits 1 with one line), the fuzz gate, and the episode
# gate (theorem-survival matrix on cascading/transient/moving
# timelines), and the benchmark-correctness gate (every perfbench
# workload's own result checks).
set -eu

cd "$(dirname "$0")/.."

dune build
dune runtest

# Every artifact the smoke produces lives under one temp dir, removed
# by the one trap below.
tmp=$(mktemp -d "${TMPDIR:-/tmp}/rtr_smoke.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

REPRO_CASES=50 dune exec bench/main.exe -- --quick --metrics BENCH_smoke.json

# The trace needs a .jsonl suffix: json_check picks line-by-line
# validation off the extension.
trace="$tmp/trace.jsonl"
metrics="$tmp/metrics.json"

dune exec bin/rtr_sim.exe -- run --topo AS209 \
  --trace "$trace" --metrics "$metrics" > /dev/null

dune exec tools/json_check.exe -- BENCH_smoke.json "$trace" "$metrics"

# The committed bench series must stay valid JSON too.
dune exec tools/json_check.exe -- BENCH_*.json

# --- perf-regression gate --------------------------------------------
# The quick bench above doubles as a performance probe: its headline
# throughput gauges must stay within PERF_TOL percent of the latest
# committed BENCH_*.json (mode-normalised; see scripts/perf_gate.sh).
scripts/perf_gate.sh BENCH_smoke.json

# And the gate itself must be live: the same probe with a simulated
# 40% slowdown has to trip it.  (40, not 25: quick probes on the
# shared runner scatter over a ±25% band — see the calibration notes
# in perf_gate.sh — so the floors are necessarily set below that
# band, and only a slowdown that clears the noise can be asserted to
# trip from any starting point within it.)
if PERF_INJECT_SLOWDOWN=40 scripts/perf_gate.sh BENCH_smoke.json \
     > /dev/null 2>&1
then
  echo "ci_smoke: FAIL — perf gate missed an injected 40% slowdown" >&2
  exit 1
fi

echo "ci_smoke: perf gate OK (throughput within tolerance; trips on injected 40% slowdown)"

# --- determinism gate ------------------------------------------------
# Parallel evaluation must not change a single byte of the science.
# The gate runs on rtr_sim rather than the bench binary because the
# Bechamel microbenchmarks are wall-clock-quota driven — their
# iteration counts (and the counters they inflate) legitimately differ
# run to run — whereas the simulator's report and metrics are fully
# deterministic.  json_canon strips the fields that may differ between
# the two runs: the manifest (argv embeds the temp paths, wall_s is
# timing, jobs is the knob under test) and the pool.* scheduling
# metrics that only the parallel run records, plus
# spt.ws_alloc/ws_reuse: arenas live per domain, so the alloc/reuse
# split depends on how many worker domains existed (their sum is
# jobs-invariant, the split is not).
canon() {
  dune exec tools/json_canon.exe -- \
    --strip manifest \
    --strip metrics.counters.pool. \
    --strip metrics.gauges.pool. \
    --strip metrics.histograms.pool. \
    --strip metrics.counters.spt.ws_ \
    --strip metrics.counters.stream.shards_read \
    "$1"
}

RTR_JOBS=1 dune exec bin/rtr_sim.exe -- table3 --cases 40 \
  --topos AS209,AS1239 --metrics "$tmp/m1.json" > "$tmp/r1.txt" 2> /dev/null
RTR_JOBS=4 dune exec bin/rtr_sim.exe -- table3 --cases 40 \
  --topos AS209,AS1239 --metrics "$tmp/m4.json" > "$tmp/r4.txt" 2> /dev/null

if ! diff "$tmp/r1.txt" "$tmp/r4.txt"; then
  echo "ci_smoke: FAIL — report differs between RTR_JOBS=1 and RTR_JOBS=4" >&2
  exit 1
fi

canon "$tmp/m1.json" > "$tmp/c1.json"
canon "$tmp/m4.json" > "$tmp/c4.json"

if ! diff "$tmp/c1.json" "$tmp/c4.json"; then
  echo "ci_smoke: FAIL — metrics differ between RTR_JOBS=1 and RTR_JOBS=4" >&2
  exit 1
fi

# Same gate on the bench binary's reproduction stage: everything it
# prints before the microbenchmark section (the paper's tables and
# figures, the flow-level congestion sweep, and the DES motivation) is
# deterministic and must not move with RTR_JOBS.  REPRO_FLOWS is
# shrunk here — the first bench run above already swept the full quota;
# these two runs only check invariance.
REPRO_CASES=50 REPRO_FLOWS=20000 RTR_JOBS=1 dune exec bench/main.exe -- --quick \
  | awk '/Bechamel microbenchmarks/{exit} {print}' > "$tmp/b1.txt"
REPRO_CASES=50 REPRO_FLOWS=20000 RTR_JOBS=4 dune exec bench/main.exe -- --quick \
  | awk '/Bechamel microbenchmarks/{exit} {print}' > "$tmp/b4.txt"

if ! diff "$tmp/b1.txt" "$tmp/b4.txt"; then
  echo "ci_smoke: FAIL — bench reproduction differs between RTR_JOBS=1 and RTR_JOBS=4" >&2
  exit 1
fi

echo "ci_smoke: determinism gate OK (RTR_JOBS=1 == RTR_JOBS=4)"

# --- flow-engine gate ------------------------------------------------
# The flow-level congestion report must be byte-identical across
# worker counts (integer accumulators over a fixed shard grid), and
# the quick bench's flow sweep must actually have evaluated at least a
# million flows (2 topologies x 5 schemes x REPRO_FLOWS).  AS3549 (486
# links, the slowest AS per flow) joins the two smallest ASes so the
# gate also covers a dense topology.
dune exec bin/rtr_sim.exe -- flows --topos AS209,AS1239,AS3549 \
  --flows 20000 --jobs 1 > "$tmp/fl1.txt" 2> /dev/null
dune exec bin/rtr_sim.exe -- flows --topos AS209,AS1239,AS3549 \
  --flows 20000 --jobs 4 > "$tmp/fl4.txt" 2> /dev/null

if ! diff "$tmp/fl1.txt" "$tmp/fl4.txt"; then
  echo "ci_smoke: FAIL — congestion report differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi

flows_n=$(grep -o '"flowsim.flows":[0-9]*' BENCH_smoke.json | cut -d: -f2)
if [ -z "$flows_n" ] || [ "$flows_n" -lt 1000000 ]; then
  echo "ci_smoke: FAIL — flowsim.flows='$flows_n' in the quick bench (want >= 1000000)" >&2
  exit 1
fi

echo "ci_smoke: flow gate OK (congestion report jobs-invariant; $flows_n flows swept)"

# --- microbench / hot-path gate --------------------------------------
# The SPT workspace must actually be reused (spt.ws_alloc stays small —
# one arena per domain plus the microbench's own pinned arena, far
# below the thousands of runs), and the phase-2 per-destination cache
# must be live (BENCH_0003 shipped with phase2.cache_hits stuck at 0).
mb="$tmp/microbench.json"

dune exec bin/rtr_sim.exe -- microbench --topo AS209 --iters 4 \
  --metrics "$mb" > /dev/null
dune exec tools/json_check.exe -- "$mb"

ws_alloc=$(grep -o '"spt.ws_alloc":[0-9]*' "$mb" | cut -d: -f2)
ws_reuse=$(grep -o '"spt.ws_reuse":[0-9]*' "$mb" | cut -d: -f2)
cache_hits=$(grep -o '"phase2.cache_hits":[0-9]*' "$mb" | cut -d: -f2)

if [ -z "$ws_alloc" ] || [ "$ws_alloc" -gt 8 ]; then
  echo "ci_smoke: FAIL — spt.ws_alloc='$ws_alloc' (want 1..8: one arena per domain)" >&2
  exit 1
fi
if [ -z "$ws_reuse" ] || [ "$ws_reuse" -le "$ws_alloc" ]; then
  echo "ci_smoke: FAIL — spt.ws_reuse='$ws_reuse' not above ws_alloc='$ws_alloc'" >&2
  exit 1
fi
if [ -z "$cache_hits" ] || [ "$cache_hits" -lt 1 ]; then
  echo "ci_smoke: FAIL — phase2.cache_hits='$cache_hits' (the BENCH_0003 dead-cache bug)" >&2
  exit 1
fi

echo "ci_smoke: microbench gate OK (ws_alloc=$ws_alloc ws_reuse=$ws_reuse cache_hits=$cache_hits)"

# --- recovery-map gate -----------------------------------------------
# The precompute/serve pipeline end to end on a small artifact: the
# compiler must be jobs-invariant byte for byte, the manifest must be
# valid JSON, and the lookup service must actually hit the index (the
# bench perturbs 1 in 8 probes, so ~87% of 1000 lookups should hit).
rmapdir="$tmp/rmap"
mkdir "$rmapdir"

dune exec bin/rtr_sim.exe -- precompute --topo AS1239 \
  --out "$rmapdir/map1.bin" --grid 3x3 --radii 150,250 --jobs 1 \
  > /dev/null 2>&1
dune exec bin/rtr_sim.exe -- precompute --topo AS1239 \
  --out "$rmapdir/map4.bin" --grid 3x3 --radii 150,250 --jobs 4 \
  > /dev/null 2>&1

if ! cmp "$rmapdir/map1.bin" "$rmapdir/map4.bin"; then
  echo "ci_smoke: FAIL — rmap artifact differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
dune exec tools/json_check.exe -- \
  "$rmapdir/map1.bin.manifest.json" "$rmapdir/map4.bin.manifest.json"

dune exec bin/rtr_sim.exe -- serve --map "$rmapdir/map1.bin" \
  --bench-lookups 1000 --metrics "$rmapdir/serve.json" > /dev/null
dune exec tools/json_check.exe -- "$rmapdir/serve.json"

rmap_hits=$(grep -o '"rmap.lookup_hits":[0-9]*' "$rmapdir/serve.json" | cut -d: -f2)
if [ -z "$rmap_hits" ] || [ "$rmap_hits" -lt 800 ]; then
  echo "ci_smoke: FAIL — rmap.lookup_hits='$rmap_hits' of 1000 (want >= 800)" >&2
  exit 1
fi

echo "ci_smoke: rmap gate OK (artifact jobs-invariant, $rmap_hits/1000 lookup hits)"

# --- streaming pipeline gate -----------------------------------------
# The staged file pipeline (generate | evaluate | reduce) on the same
# workload as the determinism gate.  One generated stream, evaluated
# two ways — as a single shard, and as two shard processes with shard 0
# killed mid-record and resumed — must reduce to reports byte-identical
# to each other AND to the in-memory table3 run above; the reduce-stage
# metrics must agree too (modulo stream.shards_read, which honestly
# counts the files read).
streamdir="$tmp/stream"
mkdir "$streamdir"

dune exec bin/rtr_sim.exe -- generate --cases 40 --topos AS209,AS1239 \
  --stream "$streamdir/scenarios.jsonl" > /dev/null

# One shard covering the whole stream.
dune exec bin/rtr_sim.exe -- evaluate --stream "$streamdir/scenarios.jsonl" \
  --out "$streamdir/whole.jsonl" --shards 1 --jobs 4 > /dev/null

# Two shards; independent processes.
dune exec bin/rtr_sim.exe -- evaluate --stream "$streamdir/scenarios.jsonl" \
  --out "$streamdir/shard0.jsonl" --shard 0 --shards 2 --jobs 1 > /dev/null
dune exec bin/rtr_sim.exe -- evaluate --stream "$streamdir/scenarios.jsonl" \
  --out "$streamdir/shard1.jsonl" --shard 1 --shards 2 --jobs 4 > /dev/null

# Kill shard 0 mid-record: drop the footer and the last record, leave
# half of that record as an unterminated torn tail, then resume.
total=$(wc -l < "$streamdir/shard0.jsonl")
head -n $((total - 2)) "$streamdir/shard0.jsonl" > "$streamdir/shard0.cut"
tail -n 2 "$streamdir/shard0.jsonl" | head -n 1 | cut -c1-50 | tr -d '\n' \
  >> "$streamdir/shard0.cut"
mv "$streamdir/shard0.cut" "$streamdir/shard0.jsonl"

dune exec bin/rtr_sim.exe -- evaluate --stream "$streamdir/scenarios.jsonl" \
  --out "$streamdir/shard0.jsonl" --shard 0 --shards 2 --jobs 1 --resume \
  --metrics "$streamdir/resume_metrics.json" > /dev/null

for counter in '"checkpoint.torn_tail":1' '"checkpoint.resumed":1'; do
  if ! grep -q "$counter" "$streamdir/resume_metrics.json"; then
    echo "ci_smoke: FAIL — resume did not record $counter" >&2
    exit 1
  fi
done

dune exec bin/rtr_sim.exe -- reduce --stream "$streamdir/scenarios.jsonl" \
  --artifact table3 --metrics "$streamdir/ms1.json" \
  "$streamdir/whole.jsonl" > "$streamdir/s1.txt" 2> /dev/null
dune exec bin/rtr_sim.exe -- reduce --stream "$streamdir/scenarios.jsonl" \
  --artifact table3 --metrics "$streamdir/ms2.json" \
  "$streamdir/shard0.jsonl" "$streamdir/shard1.jsonl" \
  > "$streamdir/s2.txt" 2> /dev/null

if ! diff "$streamdir/s1.txt" "$streamdir/s2.txt"; then
  echo "ci_smoke: FAIL — reduced report differs between 1 and 2 shards" >&2
  exit 1
fi
if ! diff "$streamdir/s1.txt" "$tmp/r1.txt"; then
  echo "ci_smoke: FAIL — staged pipeline differs from in-memory table3" >&2
  exit 1
fi

canon "$streamdir/ms1.json" > "$streamdir/cs1.json"
canon "$streamdir/ms2.json" > "$streamdir/cs2.json"
if ! diff "$streamdir/cs1.json" "$streamdir/cs2.json"; then
  echo "ci_smoke: FAIL — reduce metrics differ between 1 and 2 shards" >&2
  exit 1
fi

echo "ci_smoke: stream gate OK (1 shard == 2 shards with crash-resume == in-memory)"

# --- hostile-input gate ----------------------------------------------
# Bad input must end a subcommand with exit 1 and a one-line message,
# never an uncaught exception (exit 125): an unknown topology name, and
# a stream whose header or whose record is corrupt.
expect_exit_1() {
  what=$1
  shift
  if dune exec bin/rtr_sim.exe -- "$@" > /dev/null 2> "$tmp/hostile.err"
  then status=0
  else status=$?
  fi
  if [ "$status" -ne 1 ] || grep -q "uncaught exception" "$tmp/hostile.err"
  then
    echo "ci_smoke: FAIL — $what exited $status (want 1, no uncaught exception)" >&2
    cat "$tmp/hostile.err" >&2
    exit 1
  fi
}

printf 'garbage\n' > "$streamdir/bad_header.jsonl"
head -n 1 "$streamdir/scenarios.jsonl" > "$streamdir/bad_record.jsonl"
printf '{"seq": 0, "bogus"\n' >> "$streamdir/bad_record.jsonl"

expect_exit_1 "generate --topos AS9999" generate --topos AS9999 \
  --stream "$streamdir/unknown.jsonl"
expect_exit_1 "evaluate on a corrupt stream header" evaluate \
  --stream "$streamdir/bad_header.jsonl" --out "$streamdir/bad_h.jsonl"
expect_exit_1 "evaluate on a corrupt stream record" evaluate \
  --stream "$streamdir/bad_record.jsonl" --out "$streamdir/bad_r.jsonl"

echo "ci_smoke: hostile-input gate OK (unknown topology, corrupt header and record exit 1)"

# --- fuzz gate -------------------------------------------------------
# Theorem-oracle fuzzing (lib/check): random topologies and failures
# checked against Theorems 1-3 and the differential oracles.  The
# default budget keeps this stage around half a minute; the nightly
# profile raises FUZZ_CASES for a deeper sweep.
FUZZ_CASES="${FUZZ_CASES:-300}"

dune exec bin/rtr_sim.exe -- fuzz --cases "$FUZZ_CASES" --seed 42

# The fuzzer must still be able to see bugs: an injected Theorem-2
# fault (phase 2 forgetting one collected failed link) has to be
# caught, shrunk, and its artifact has to replay.
fuzzdir="$tmp/fuzz"
mkdir "$fuzzdir"

if dune exec bin/rtr_sim.exe -- fuzz --cases 40 --seed 42 \
     --oracle optimal --inject drop-failed-link --out "$fuzzdir" > /dev/null
then
  echo "ci_smoke: FAIL — injected drop-failed-link bug was not caught" >&2
  exit 1
fi
dune exec tools/json_check.exe -- "$fuzzdir"/counterexample_*.json
dune exec bin/rtr_sim.exe -- replay "$fuzzdir"/counterexample_*.json > /dev/null

# Campaigns must not depend on the worker count: same seed, same
# artifacts, byte for byte.
rm -rf "$fuzzdir"/j1 "$fuzzdir"/j4
dune exec bin/rtr_sim.exe -- fuzz --cases 40 --seed 42 --jobs 1 \
  --oracle optimal --inject drop-failed-link --out "$fuzzdir/j1" \
  > /dev/null || true
dune exec bin/rtr_sim.exe -- fuzz --cases 40 --seed 42 --jobs 4 \
  --oracle optimal --inject drop-failed-link --out "$fuzzdir/j4" \
  > /dev/null || true
if ! diff -r "$fuzzdir/j1" "$fuzzdir/j4"; then
  echo "ci_smoke: FAIL — fuzz artifacts differ between --jobs 1 and --jobs 4" >&2
  exit 1
fi

echo "ci_smoke: fuzz gate OK ($FUZZ_CASES clean cases; injected bug caught, replayed, jobs-invariant)"

# --- episode gate ----------------------------------------------------
# The theorem-survival matrix on episode timelines (cascading /
# transient / moving failures).  A small clean campaign per kind:
# Theorems 1 and 3 must hold everywhere — the expected Theorem-2
# relaxation violations are matrix measurements, not failures, so a
# clean exit means "loop-free survived, stretch measured".  Then the
# committed episode corpus must replay, an injected truncated
# collection walk must trip the episode loop oracle, and the matrix
# must be jobs-invariant byte for byte.
EPISODE_CASES="${EPISODE_CASES:-15}"

epidir="$tmp/episodes"
dune exec bin/rtr_sim.exe -- fuzz --episodes all --cases "$EPISODE_CASES" \
  --seed 7 --out "$epidir"
dune exec tools/json_check.exe -- "$epidir/survival_matrix.json"

dune exec bin/rtr_sim.exe -- replay test/corpus/episode_*.json > /dev/null

if dune exec bin/rtr_sim.exe -- fuzz --episodes cascading --cases 6 --seed 7 \
     --inject truncate-walk > /dev/null
then
  echo "ci_smoke: FAIL — injected truncate-walk bug missed by the episode oracles" >&2
  exit 1
fi

rm -rf "$epidir/j1" "$epidir/j4"
dune exec bin/rtr_sim.exe -- fuzz --episodes all --cases 10 --seed 7 \
  --jobs 1 --out "$epidir/j1" > /dev/null
dune exec bin/rtr_sim.exe -- fuzz --episodes all --cases 10 --seed 7 \
  --jobs 4 --out "$epidir/j4" > /dev/null
if ! diff -r "$epidir/j1" "$epidir/j4"; then
  echo "ci_smoke: FAIL — survival matrix differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi

echo "ci_smoke: episode gate OK ($EPISODE_CASES cases/kind clean; corpus replayed; injected walk truncation caught; jobs-invariant)"
# --- benchmark-correctness gate --------------------------------------
# One short run of every perfbench workload.  Each run checks its own
# results while it measures (the repro Table III digests, flow
# conservation, rmap hits against the store, resume equal to the
# uninterrupted reduction); a run must report correct with no failed
# check.
for w in repro flows rmap resume; do
  python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 \
    2> "$tmp/perfbench_$w.err" | tail -n 1 > "$tmp/perfbench_$w.json"
  if ! python3 -c '
import json, sys
r = json.load(open(sys.argv[1]))
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)
' "$tmp/perfbench_$w.json" 2> /dev/null
  then
    echo "ci_smoke: FAIL — perfbench $w run not correct or has failed checks" >&2
    cat "$tmp/perfbench_$w.err" "$tmp/perfbench_$w.json" >&2
    exit 1
  fi
done

echo "ci_smoke: benchmark gate OK (repro, flows, rmap, resume correct with 0 failed checks)"
echo "ci_smoke: OK"
