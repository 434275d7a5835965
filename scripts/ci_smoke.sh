#!/bin/sh
# CI smoke: build, run the test suites, then exercise the observability
# path end to end (an rtr_sim run emitting a trace and a metrics
# snapshot) and fail if any emitted artifact is not valid JSON / JSONL.
# Then the gates: the examples gate (every examples/ executable runs
# once, exits 0 and prints the stdout scripts/examples.txt pins), the
# CLI matrix gate (every rtr_sim invocation in scripts/cli_matrix.txt
# keeps its exit code and stdout), the determinism gate (RTR_JOBS / --jobs must not
# change a byte), the flow-engine gate, the recovery-map gate, the
# streaming-pipeline gate (generate | evaluate | reduce must equal the
# in-process run, shard splits and crash-resume included), the count
# gate (the work counters of the --jobs 1 snapshots above must equal
# the committed scripts/counts/*.txt exactly), the hostile-input gate
# (bad input or an unwritable output exits 1 with one line; a malformed
# RTR_JOBS warns once, and never under --jobs), the fuzz
# gate, the episode gate (theorem-survival matrix on
# cascading/transient/moving timelines), and the benchmark-correctness
# gate (every perfbench workload's own result checks).  Wall-clock is
# not gated here: perfbench measures it.  The SPT-arena and phase-2
# cache bounds live in dune runtest (graph.workspace, core.phase2,
# sim.runner).
set -eu

cd "$(dirname "$0")/.."

dune build
dune runtest

# Every artifact the smoke produces lives under one temp dir, removed
# by the one trap below.
tmp=$(mktemp -d "${TMPDIR:-/tmp}/rtr_smoke.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

# The trace needs a .jsonl suffix: json_check picks line-by-line
# validation off the extension.
trace="$tmp/trace.jsonl"
metrics="$tmp/metrics.json"

dune exec bin/rtr_sim.exe -- run --topo AS209 \
  --trace "$trace" --metrics "$metrics" > /dev/null

dune exec tools/json_check.exe -- "$trace" "$metrics"

# The committed bench series must stay valid JSON too.
dune exec tools/json_check.exe -- BENCH_*.json

# --- examples gate ---------------------------------------------------
# Each example runs once from the build tree (about 0.2 s for all six),
# must exit 0, and must print what scripts/examples.txt pins: the first
# 16 hex digits of the MD5 of its stdout.  live_recovery is the only
# caller of the packet simulator outside the tests.  A change that
# moves an example's output on purpose re-records with
#   cp "$tmp/examples.txt" scripts/examples.txt
# after the failing run (the diff below names the file).
for ex in quickstart disaster partition multi_area igp_window live_recovery; do
  if ! "./_build/default/examples/$ex.exe" > "$tmp/$ex.out"; then
    echo "ci_smoke: FAIL — examples/$ex.exe exited non-zero" >&2
    exit 1
  fi
  printf '%s %s\n' "$(md5sum < "$tmp/$ex.out" | cut -c1-16)" "$ex"
done > "$tmp/examples.txt"
if ! diff -u scripts/examples.txt "$tmp/examples.txt" >&2; then
  echo "ci_smoke: FAIL — an example's stdout moved (diff above)" >&2
  exit 1
fi

echo "ci_smoke: examples gate OK (6 examples ran, exit 0, stdout pinned)"

# --- CLI matrix gate -------------------------------------------------
# Every subcommand at a small size and every documented error exit:
# each row's exit code, stdout digest and stderr line count, and the
# digests of the files the rows write, must match the committed matrix.
scripts/cli_matrix.sh _build/default/bin/rtr_sim.exe > "$tmp/cli_matrix.txt"
if ! diff -u scripts/cli_matrix.txt "$tmp/cli_matrix.txt" >&2; then
  echo "ci_smoke: FAIL — rtr_sim CLI matrix moved (diff above)" >&2
  exit 1
fi
# Exit 125 is an uncaught exception: no recorded row may expect one.
if grep -q '^125 ' scripts/cli_matrix.txt; then
  echo "ci_smoke: FAIL — the CLI matrix records an exit 125 (a crash)" >&2
  exit 1
fi

echo "ci_smoke: CLI matrix gate OK ($(grep -c '^[0-9]' scripts/cli_matrix.txt) invocations)"

# --- determinism gate ------------------------------------------------
# Parallel evaluation must not change a single byte of the science.
# json_canon strips the fields that may differ between the two runs:
# the manifest (argv embeds the temp paths, wall_s is timing, jobs is
# the knob under test) and the pool.* scheduling metrics that only the
# parallel run records, plus spt.ws_alloc/ws_reuse: arenas live per
# domain, so the alloc/reuse split depends on how many worker domains
# existed (their sum is jobs-invariant, the split is not).
canon() {
  dune exec tools/json_canon.exe -- \
    --strip manifest \
    --strip metrics.counters.pool. \
    --strip metrics.gauges.pool. \
    --strip metrics.histograms.pool. \
    --strip metrics.counters.spt.ws_ \
    --strip metrics.counters.stream.shards_read \
    --strip metrics.counters.shard_store.lines_parsed \
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

# Every paper table and figure (rtr_sim all: Table II, Figs. 7-13,
# Tables III-IV) must print and count identically at --jobs 1 and 4.
for j in 1 4; do
  dune exec bin/rtr_sim.exe -- all --cases 50 --topos AS209,AS701 \
    --jobs $j --metrics "$tmp/all$j.json" > "$tmp/all$j.txt" 2> /dev/null
  canon "$tmp/all$j.json" > "$tmp/call$j.json"
done

if ! diff "$tmp/all1.txt" "$tmp/all4.txt"; then
  echo "ci_smoke: FAIL — rtr_sim all differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
if ! diff "$tmp/call1.json" "$tmp/call4.json"; then
  echo "ci_smoke: FAIL — rtr_sim all metrics differ between --jobs 1 and --jobs 4" >&2
  exit 1
fi

# rtr_sim run evaluates every case of its one scenario through
# Parallel.map; its summary must print identically at any --jobs.
dune exec bin/rtr_sim.exe -- run --topo AS209 --jobs 1 > "$tmp/run1.txt" 2> /dev/null
dune exec bin/rtr_sim.exe -- run --topo AS209 --jobs 4 > "$tmp/run4.txt" 2> /dev/null

if ! diff "$tmp/run1.txt" "$tmp/run4.txt"; then
  echo "ci_smoke: FAIL — run output differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi

echo "ci_smoke: determinism gate OK (RTR_JOBS=1 == RTR_JOBS=4; all and run --jobs 1 == --jobs 4)"

# --- flow-engine gate ------------------------------------------------
# The flow-level congestion report must be byte-identical across
# worker counts (integer accumulators over a fixed shard grid), and
# each run must have evaluated every flow under every scheme: 3
# topologies x 20,000 flows x 5 schemes.  AS3549 (486 links, the
# slowest AS per flow) joins the two smallest ASes so the gate also
# covers a dense topology.  Each AS's five scheme contexts share one
# damage, so at either worker count its post-failure table must be
# computed once and served four times from Topo_cache: 3 misses and
# 12 hits, or the cache is dead.
dune exec bin/rtr_sim.exe -- flows --topos AS209,AS1239,AS3549 \
  --flows 20000 --jobs 1 --metrics "$tmp/flm1.json" > "$tmp/fl1.txt" 2> /dev/null
dune exec bin/rtr_sim.exe -- flows --topos AS209,AS1239,AS3549 \
  --flows 20000 --jobs 4 --metrics "$tmp/flm4.json" > "$tmp/fl4.txt" 2> /dev/null

if ! diff "$tmp/fl1.txt" "$tmp/fl4.txt"; then
  echo "ci_smoke: FAIL — congestion report differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
# Every work counter of the sweep, not just the two checked below, must
# be jobs-invariant: each context resolves its recovery outcomes once,
# in flow order, whichever worker gets there first.
canon "$tmp/flm1.json" > "$tmp/cflm1.json"
canon "$tmp/flm4.json" > "$tmp/cflm4.json"
if ! diff "$tmp/cflm1.json" "$tmp/cflm4.json"; then
  echo "ci_smoke: FAIL — flows metrics differ between --jobs 1 and --jobs 4" >&2
  exit 1
fi

for j in 1 4; do
  post_misses=$(grep -o '"topo_cache.post_misses":[0-9]*' "$tmp/flm$j.json" | cut -d: -f2)
  post_hits=$(grep -o '"topo_cache.post_hits":[0-9]*' "$tmp/flm$j.json" | cut -d: -f2)
  if [ "$post_misses" != 3 ] || [ "$post_hits" != 12 ]; then
    echo "ci_smoke: FAIL — flows --jobs $j: topo_cache.post_misses='$post_misses' post_hits='$post_hits' (want 3 and 12)" >&2
    exit 1
  fi
  flows_n=$(grep -o '"flowsim.flows":[0-9]*' "$tmp/flm$j.json" | cut -d: -f2)
  if [ "$flows_n" != 300000 ]; then
    echo "ci_smoke: FAIL — flows --jobs $j: flowsim.flows='$flows_n' (want 300000)" >&2
    exit 1
  fi
done

echo "ci_smoke: flow gate OK (congestion report and counters jobs-invariant; post-failure tables 3 computed, 12 shared; $flows_n flows swept)"

# --- recovery-map gate -----------------------------------------------
# The precompute/serve pipeline end to end on a small artifact: the
# compiler must be jobs-invariant byte for byte and the manifests valid
# JSON.  The serve snapshot's lookup hits and misses (1 probe in 8 is
# perturbed into a miss) are pinned by the count gate below.
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

echo "ci_smoke: rmap gate OK (artifact jobs-invariant)"

# --- streaming pipeline gate -----------------------------------------
# The staged file pipeline (generate | evaluate | reduce) on the same
# workload as the determinism gate.  One generated stream, evaluated
# two ways — as a single shard, and as two shard processes with shard 0
# killed mid-record and resumed — must reduce to reports byte-identical
# to each other AND to the in-memory table3 run above; the reduce-stage
# metrics must agree too (modulo stream.shards_read and
# shard_store.lines_parsed, which honestly count the files and lines
# read).  The resumes' checkpoint.torn_tail/resumed counts are pinned
# by the count gate below.
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

# Kill shard 1 inside its footer line: every record survives, so the
# resume re-runs nothing and its new footer lists no topology.  The
# reduce below then takes the MRC size of every topology shard 0's
# footer does not list (AS1239: shard 0 re-ran an AS209 record) from
# the isolation assignment (Mrc.configs_needed).
total=$(wc -l < "$streamdir/shard1.jsonl")
head -n $((total - 1)) "$streamdir/shard1.jsonl" > "$streamdir/shard1.cut"
tail -n 1 "$streamdir/shard1.jsonl" | cut -c1-40 | tr -d '\n' \
  >> "$streamdir/shard1.cut"
mv "$streamdir/shard1.cut" "$streamdir/shard1.jsonl"

dune exec bin/rtr_sim.exe -- evaluate --stream "$streamdir/scenarios.jsonl" \
  --out "$streamdir/shard1.jsonl" --shard 1 --shards 2 --jobs 1 --resume \
  --metrics "$streamdir/resume1_metrics.json" > /dev/null

if ! tail -n 1 "$streamdir/shard1.jsonl" | grep -q '"mrc":{}'; then
  echo "ci_smoke: FAIL — footer-cut resume rebuilt an MRC" >&2
  exit 1
fi

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

echo "ci_smoke: stream gate OK (1 shard == 2 shards with crash-resume" \
  "and a torn footer == in-memory)"

# --- count gate ------------------------------------------------------
# The work the --jobs 1 runs above did, counted exactly: every counter
# in their metrics snapshots must equal scripts/counts/NAME.txt, with
# tolerance 0.  At --jobs 1 the pool runs inline and the counters
# repeat exactly run to run, so any difference is a change in the work
# itself (an extra Dijkstra per case moves spt.ws_reuse and pqueue.pop).
# Wall-clock is not gated; perfbench measures it.  The observed counts
# land in _build/counts/; a change that moves a count on purpose
# re-records them after the failing run with
#   cp _build/counts/*.txt scripts/counts/
# and says in CHANGES.md which counters moved and why.
counts() {
  dune exec tools/json_canon.exe -- --strip manifest \
    --strip metrics.gauges --strip metrics.histograms "$1" \
    | sed 's/^{"metrics":{"counters":{//; s/}}}$//' | tr ',' '\n'
}

mkdir -p _build/counts
counts_failed=
for pair in all:"$tmp/all1.json" flows:"$tmp/flm1.json" \
            serve:"$rmapdir/serve.json" \
            resume:"$streamdir/resume_metrics.json" \
            resume_footer:"$streamdir/resume1_metrics.json" \
            reduce:"$streamdir/ms2.json"; do
  name=${pair%%:*}
  counts "${pair#*:}" > "_build/counts/$name.txt"
  if ! diff -u "scripts/counts/$name.txt" "_build/counts/$name.txt" >&2; then
    counts_failed="$counts_failed $name"
  fi
done
if [ -n "$counts_failed" ]; then
  echo "ci_smoke: FAIL — counts moved:$counts_failed (diffs above)" >&2
  exit 1
fi

# The gate must be live: one extra priority-queue pop, or one extra
# FCP tree built, in the all snapshot has to trip it.
for counter in pqueue.pop fcp.trees_built; do
  value=$(grep -o "\"$counter\":[0-9]*" "$tmp/all1.json" | cut -d: -f2)
  sed "s/\"$counter\":$value/\"$counter\":$((value + 1))/" "$tmp/all1.json" \
    > "$tmp/all_bumped.json"
  if counts "$tmp/all_bumped.json" | diff scripts/counts/all.txt - > /dev/null
  then
    echo "ci_smoke: FAIL — count gate missed $counter bumped by 1" >&2
    exit 1
  fi
done

echo "ci_smoke: count gate OK (all, flows, serve, resume, resume_footer, reduce counters exact; trips on pqueue.pop + 1 and fcp.trees_built + 1)"

# --- hostile-input gate ----------------------------------------------
# Bad input must end a subcommand with exit 1 and a one-line message,
# never an uncaught exception (exit 125): an unknown topology name, a
# stream whose header or whose record is corrupt, a torn, garbage or
# mistyped result shard, an output path under a regular file, and a
# missing recovery map.
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
# A header that asks for fewer than two MRC configurations is corrupt:
# the stream decoder rejects it before MRC is ever built.
sed '1s/"mrc_k":null/"mrc_k":1/' "$streamdir/scenarios.jsonl" \
  > "$streamdir/mrc_k1.jsonl"
expect_exit_1 "evaluate on a stream header with mrc_k 1" evaluate \
  --stream "$streamdir/mrc_k1.jsonl" --out "$streamdir/bad_k.jsonl"
# Only rtr-stream/1 is a scenario stream: an rtr-stream/2 header is an
# unknown format, reported in one line.
sed '1s|"rtr-stream/1"|"rtr-stream/2"|' "$streamdir/scenarios.jsonl" \
  > "$streamdir/v2.jsonl"
expect_exit_1 "evaluate on an rtr-stream/2 header" evaluate \
  --stream "$streamdir/v2.jsonl" --out "$streamdir/bad_v2.jsonl"
if [ "$(wc -l < "$tmp/hostile.err")" -ne 1 ]; then
  echo "ci_smoke: FAIL — an rtr-stream/2 header must give one stderr line" >&2
  cat "$tmp/hostile.err" >&2
  exit 1
fi

head -c 300 "$streamdir/whole.jsonl" > "$streamdir/torn_shard.jsonl"
printf 'garbage\n' > "$streamdir/garbage_shard.jsonl"
: > "$streamdir/regular"

expect_exit_1 "reduce on a torn shard" reduce \
  --stream "$streamdir/scenarios.jsonl" "$streamdir/torn_shard.jsonl"
# A shard whose one record is valid JSON but mistyped (its first
# `true` flag written as 1) fails in the in-place result reader, not
# in the JSON syntax: reduce must say so in one line.
head -n 1 "$streamdir/whole.jsonl" > "$streamdir/mistyped_shard.jsonl"
sed -n 2p "$streamdir/whole.jsonl" | sed 's/true/1/' \
  >> "$streamdir/mistyped_shard.jsonl"
printf '{"format":"rtr-shard-footer/1","records":1,"mrc":{},"complete":true}\n' \
  >> "$streamdir/mistyped_shard.jsonl"
dune exec tools/json_check.exe -- "$streamdir/mistyped_shard.jsonl" > /dev/null
expect_exit_1 "reduce on a mistyped shard record" reduce \
  --stream "$streamdir/scenarios.jsonl" "$streamdir/mistyped_shard.jsonl"
if [ "$(wc -l < "$tmp/hostile.err")" -ne 1 ] \
  || ! grep -q "bad result record" "$tmp/hostile.err"; then
  echo "ci_smoke: FAIL — a mistyped shard record must give one 'bad result record' line" >&2
  cat "$tmp/hostile.err" >&2
  exit 1
fi
expect_exit_1 "evaluate --resume on a garbage shard" evaluate \
  --stream "$streamdir/scenarios.jsonl" --out "$streamdir/garbage_shard.jsonl" \
  --resume
expect_exit_1 "table3 --out under a regular file" table3 --cases 5 \
  --topos AS209 --out "$streamdir/regular/dir"
expect_exit_1 "precompute --manifest under a regular file" precompute \
  --topo AS1239 --out "$streamdir/m.bin" \
  --manifest "$streamdir/regular/m.json"
# An I/O message names its file once, whoever reports it.
expect_exit_1 "serve on a missing map" serve --map "$streamdir/missing.bin"
if [ "$(cat "$tmp/hostile.err")" != \
  "rtr_sim: $streamdir/missing.bin: No such file or directory" ]; then
  echo "ci_smoke: FAIL — serve on a missing map must name the file once" >&2
  cat "$tmp/hostile.err" >&2
  exit 1
fi

# A malformed RTR_JOBS warns exactly once when --jobs falls back to it,
# and not at all when --jobs is given: only that flag's default reads
# the variable.
rtr_jobs_warnings() {
  RTR_JOBS=abc dune exec bin/rtr_sim.exe -- table3 --cases 5 --topos AS209 \
    "$@" 2>&1 > /dev/null | grep -c "warning: RTR_JOBS" || true
}
if [ "$(rtr_jobs_warnings --jobs 1)" -ne 0 ] || [ "$(rtr_jobs_warnings)" -ne 1 ]
then
  echo "ci_smoke: FAIL — a malformed RTR_JOBS must warn once without --jobs and never with it" >&2
  exit 1
fi

echo "ci_smoke: hostile-input gate OK (unknown topology, corrupt header/record/shard, mrc_k 1 and rtr-stream/2 headers, mistyped shard record, unwritable outputs, missing map exit 1, one RTR_JOBS warning)"

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

# The static Theorem-1 oracle must see an injected Theorem-1 fault (a
# phase-1 walk cut far below its TTL) as well.
if dune exec bin/rtr_sim.exe -- fuzz --cases 20 --seed 42 \
     --oracle no_loop --inject truncate-walk > /dev/null
then
  echo "ci_smoke: FAIL — injected truncate-walk bug missed by no_loop" >&2
  exit 1
fi

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

echo "ci_smoke: fuzz gate OK ($FUZZ_CASES clean cases; injected bugs caught, replayed, jobs-invariant)"

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
