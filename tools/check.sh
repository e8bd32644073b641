#!/usr/bin/env bash
# Full verification gate:
#   1. default build + complete test suite,
#   2. ThreadSanitizer build running the concurrency suites
#      (test_thread_pool, test_sweep_determinism, test_properties,
#      test_telemetry, test_kernels, test_systolic_sim, test_netplan,
#      test_serve — the kernel/sim pair covers the fast backends'
#      parallel execution; test_netplan runs the network executor across
#      schedule modes and sim threads; test_serve replays the serving
#      engine's worker-determinism trace at 1/2/4 payload threads),
#   3. AddressSanitizer build running the mapping/executor suites
#      (test_mapping, test_execute, test_systolic_sim, test_netplan,
#      test_serve),
#   4. Release (-O3) build running the kernel differential suite plus a
#      bench_kernels smoke pass — the kernel exactness contract must
#      survive full optimization, not just the default build — whose
#      --json rows must report a positive GFLOP/s wherever they carry a
#      MAC count,
#   5. forced-ISA matrix: the kernel differential suite (test_kernels +
#      test_cpu_features) must pass under FUSE_KERNEL_ISA=scalar and
#      =auto, and a bench_table1 smoke must produce CSVs that agree
#      within float tolerance between --kernel-isa=scalar and =auto (on
#      non-AVX2 machines both legs run scalar and the diff is trivially
#      exact),
#   6. bench determinism: every bench binary's output must be
#      byte-identical between --threads=1 --no-cache and --threads=8
#      (only footer lines — see filter_bench_output — may differ),
#   7. backend equality: every table/figure bench's stdout and CSVs must
#      be byte-identical between --kernel-backend=fast and
#      --kernel-backend=reference. Both legs pin FUSE_KERNEL_ISA=scalar:
#      only the scalar ISA is bit-exact against the reference kernels
#      (the SIMD ISAs are ULP-bounded, covered by stage 5), so this
#      byte-level diff needs the scalar pin to stay meaningful,
#   8. sim backend equality: the simulator-driven examples
#      (simulate_network, simulate_layer, pe_heatmap) must print
#      byte-identical stdout under --sim-backend=fast and
#      --sim-backend=reference, and a bench_sim smoke pass re-verifies the
#      fast engine's bit-exactness layer by layer,
#   9. schedule equality: the fused network schedule is strictly opt-in —
#      every golden bench's stdout must be byte-identical between a
#      flag-less run and an explicit --sched-mode=per-layer run,
#  10. telemetry export: profile_network's trace/stats JSON must parse,
#      in both the default per-layer view and the fused-schedule view —
#      and with --attribution-json the cycle-attribution report must
#      parse and its components must sum back to the totals,
#  11. perf-regression lab: fresh bench_fusion/bench_sim JSON artifacts
#      go through tools/bench_compare.py against the committed
#      results/BENCH_*.json baselines (deterministic metrics — cycles,
#      MACs, bytes, roofline bounds — must reproduce exactly on any
#      machine; wall-clock metrics only warn), a deliberately perturbed
#      copy must make the gate exit nonzero, and a record_bench.sh
#      ledger entry must round-trip through the same comparator,
#  12. serving lab: bench_serve's artifact must parse, declare its
#      metric_families, clear the >= 2x dynamic-batching gate, and be
#      byte-identical between --workers=1 and --workers=4; a fresh run
#      diffs against the committed results/BENCH_serve.json via
#      bench_compare, a perturbed speedup_vs_b1 (exact by declaration,
#      wall-looking by name) must exit nonzero, and serve_demo's replay
#      must be byte-deterministic across repeat runs,
#  13. design-space lab: bench_dse FUSE_CHECKs the closed-form
#      evaluator's equality against the plan path over an axis-spanning
#      config subset and the >= 10x configs-per-second gate internally;
#      its stdout and frontier CSV must be byte-identical between
#      --threads=1 --no-cache and --threads=8, the fresh BENCH_dse.json
#      diffs against the committed baseline via bench_compare (frontier
#      rows exact, *_cps wall), and a perturbed frontier latency must
#      make the gate exit nonzero,
#  14. benchmark harness smoke: perfbench/run.py --smoke on all four
#      workloads (table_sweep, design_sweep, host_infer, array_sim) — the
#      harness builds against src/ and names program functions and headers
#      directly, so a rename that breaks it fails here rather than only in
#      a benchmark run; host_infer's smoke also runs its exact glue checks
#      (activation, add, scale_channels, global_avg_pool) on clean and on
#      corrupted outputs.
#
# Usage: tools/check.sh [build-dir] [tsan-build-dir] [asan-build-dir]
#        [release-build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
TSAN_DIR="${2:-build-tsan}"
ASAN_DIR="${3:-build-asan}"
RELEASE_DIR="${4:-build-release}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

# Strips the lines a bench is allowed to vary between runs: the
# "sweep: ..." wall-time/cache footer and any "# ..." comment footers.
# Every determinism diff goes through this one filter so new footer kinds
# are excluded in a single place.
filter_bench_output() {
  grep -vE '^(sweep:|#)' || true
}

echo "=== [1/14] default build + full test suite ==="
cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure

echo
echo "=== [2/14] ThreadSanitizer build + concurrency suites ==="
CONCURRENCY_TESTS=(test_thread_pool test_sweep_determinism test_properties
                   test_telemetry test_kernels test_systolic_sim
                   test_netplan test_serve)
cmake -B "$TSAN_DIR" -S . -DFUSE_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_DIR" -j "$(nproc)" --target "${CONCURRENCY_TESTS[@]}"
for t in "${CONCURRENCY_TESTS[@]}"; do
  echo "--- $t (TSan) ---"
  "$TSAN_DIR/tests/$t"
done

echo
echo "=== [3/14] AddressSanitizer build + mapping/executor suites ==="
ASAN_TESTS=(test_mapping test_execute test_systolic_sim test_netplan
            test_serve)
cmake -B "$ASAN_DIR" -S . -DFUSE_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$ASAN_DIR" -j "$(nproc)" --target "${ASAN_TESTS[@]}"
for t in "${ASAN_TESTS[@]}"; do
  echo "--- $t (ASan) ---"
  "$ASAN_DIR/tests/$t"
done

echo
echo "=== [4/14] Release -O3 build: kernel differential suite + bench smoke ==="
cmake -B "$RELEASE_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$RELEASE_DIR" -j "$(nproc)" --target test_kernels bench_kernels
echo "--- test_kernels (Release) ---"
"$RELEASE_DIR/tests/test_kernels"
echo "--- bench_kernels smoke (Release) ---"
KERNELS_JSON="$(mktemp)"
"$RELEASE_DIR/bench/bench_kernels" --benchmark_min_time=0.01 \
  --json="$KERNELS_JSON" > /dev/null
# Every row with a MAC count must turn it into a positive wall-clock rate.
python3 - "$KERNELS_JSON" <<'EOF'
import json, sys
rows = json.load(open(sys.argv[1]))
counted = [r for r in rows if r["macs"] > 0]
bad = [r["name"] for r in counted if not r["gflops"] > 0]
if not counted or bad:
    sys.exit(f"bench_kernels: {len(counted)} rows with a MAC count, "
             f"gflops <= 0 in: {bad}")
print(f"bench_kernels smoke: ok ({len(counted)} rows with gflops > 0)")
EOF
rm -f "$KERNELS_JSON"

echo
echo "=== [5/14] forced-ISA matrix: differential suite + bench CSV tolerance ==="
TELEMETRY_TMP="$(mktemp -d)"
trap 'rm -rf "$TELEMETRY_TMP"' EXIT
# The differential suite under each forced ISA. Under =scalar the float
# kernels must be bit-exact against the reference; under =auto the best
# available SIMD tier runs with ULP-bounded floats and bit-exact int8.
# On non-AVX2 machines =auto resolves to scalar and the suite logs a
# "forced-ISA coverage runs scalar only" note instead of failing.
for isa in scalar auto; do
  for t in test_kernels test_cpu_features; do
    echo "--- $t (FUSE_KERNEL_ISA=$isa) ---"
    FUSE_KERNEL_ISA="$isa" "$BUILD_DIR/tests/$t"
  done
done
# A golden-producing bench must agree between the scalar and SIMD ISAs
# within float print precision: the simulator cycle counts are integers
# and the derived ratios are printed rounded, so the CSVs normally match
# exactly — the python diff allows 1e-4 relative slack on numeric fields
# so a last-digit rounding flip is not a failure.
for isa in scalar auto; do
  dir="$TELEMETRY_TMP/isa.$isa"
  mkdir -p "$dir"
  (cd "$dir" && "$REPO_ROOT/$BUILD_DIR/bench/bench_table1" \
     --kernel-isa="$isa" --csv | filter_bench_output > stdout.txt)
done
python3 - "$TELEMETRY_TMP/isa.scalar" "$TELEMETRY_TMP/isa.auto" <<'EOF'
import os, sys
a_dir, b_dir = sys.argv[1], sys.argv[2]
names = sorted(os.listdir(a_dir))
assert names == sorted(os.listdir(b_dir)), "ISA legs wrote different files"
def close(a, b):
    if a == b:
        return True
    try:
        fa, fb = float(a), float(b)
    except ValueError:
        return False
    return abs(fa - fb) <= 1e-4 * max(1.0, abs(fa), abs(fb))
for name in names:
    with open(os.path.join(a_dir, name)) as f:
        a_lines = f.read().splitlines()
    with open(os.path.join(b_dir, name)) as f:
        b_lines = f.read().splitlines()
    assert len(a_lines) == len(b_lines), f"{name}: line counts differ"
    for i, (la, lb) in enumerate(zip(a_lines, b_lines)):
        fields_a = la.replace(",", " ").split()
        fields_b = lb.replace(",", " ").split()
        ok = len(fields_a) == len(fields_b) and all(
            close(x, y) for x, y in zip(fields_a, fields_b))
        assert ok, f"{name}:{i + 1}: ISA legs disagree:\n  {la}\n  {lb}"
print(f"{len(names)} files agree between --kernel-isa=scalar and =auto")
EOF

echo
echo "=== [6/14] bench determinism: --threads=1 --no-cache vs --threads=8 ==="
for bench in bench_table1 bench_fig8d_scaling bench_pareto \
             bench_resolution bench_width_mult bench_nos; do
  bin="$BUILD_DIR/bench/$bench"
  [ -x "$bin" ] || { echo "missing $bin" >&2; exit 1; }
  # The second leg also exercises the telemetry flags: stdout must stay
  # byte-identical with tracing on.
  if diff <("$bin" --threads=1 --no-cache | filter_bench_output) \
          <("$bin" --threads=8 \
               --trace-json="$TELEMETRY_TMP/$bench.trace.json" \
               --stats-json="$TELEMETRY_TMP/$bench.stats.json" \
             | filter_bench_output); then
    echo "$bench: byte-identical"
  else
    echo "$bench: OUTPUT DIVERGED between thread counts" >&2
    exit 1
  fi
done

echo
echo "=== [7/14] backend equality: --kernel-backend=fast vs reference ==="
# Every golden-producing bench (all of bench/ except the google-benchmark
# micro-bench, whose output is wall time). Each runs with --csv where
# supported, in a per-backend scratch dir; stdout and every CSV written
# must match byte-for-byte. bench_accuracy_synth runs real training, so
# it gets reduced arguments to keep the (much slower) reference leg short;
# the full-size equality evidence is that results/bench_accuracy_synth.txt
# itself regenerates identically under either backend.
GOLDEN_BENCHES=(bench_table1 bench_fig8a_latency bench_fig8b_layerwise
                bench_fig8c_opdist bench_fig8d_scaling bench_overhead
                bench_intro_resnet bench_accuracy_synth bench_ria_analysis
                bench_ablation_broadcast bench_ablation_dataflow
                bench_ablation_memory bench_energy bench_width_mult
                bench_resolution bench_ablation_aspect bench_nos
                bench_pareto bench_fusion)
for bench in "${GOLDEN_BENCHES[@]}"; do
  bin="$REPO_ROOT/$BUILD_DIR/bench/$bench"
  [ -x "$bin" ] || { echo "missing $bin" >&2; exit 1; }
  extra=()
  if "$bin" --help 2>&1 | grep -q -- '--csv'; then
    extra+=(--csv)
  fi
  if [ "$bench" = bench_accuracy_synth ]; then
    extra+=(--seeds=1 --epochs=2 --train=64 --eval=32)
  fi
  # Pin the scalar ISA on both legs: only scalar is bit-exact against
  # the reference kernels, which is what makes a byte-level diff valid.
  for backend in fast reference; do
    dir="$TELEMETRY_TMP/$bench.$backend"
    mkdir -p "$dir"
    if [ "$bench" = bench_ria_analysis ]; then
      # The one bench with no CLI flags: backend comes from the env.
      (cd "$dir" && FUSE_KERNEL_BACKEND="$backend" FUSE_KERNEL_ISA=scalar \
         "$bin" | filter_bench_output > stdout.txt)
    else
      (cd "$dir" && "$bin" --kernel-backend="$backend" --kernel-isa=scalar \
         "${extra[@]}" | filter_bench_output > stdout.txt)
    fi
  done
  if diff -r "$TELEMETRY_TMP/$bench.fast" "$TELEMETRY_TMP/$bench.reference"
  then
    echo "$bench: backends byte-identical"
  else
    echo "$bench: OUTPUT DIVERGED between kernel backends" >&2
    exit 1
  fi
done

echo
echo "=== [8/14] sim backend equality: --sim-backend=fast vs reference ==="
# The simulator-driven examples must print byte-identical stdout under
# either engine (the fast engine is bit-exact, cycles included). The
# second fast leg also pins --sim-threads=4: fold-parallel execution may
# not change a byte either.
for example in simulate_network simulate_layer pe_heatmap; do
  bin="$BUILD_DIR/examples/$example"
  [ -x "$bin" ] || { echo "missing $bin" >&2; exit 1; }
  "$bin" --sim-backend=reference > "$TELEMETRY_TMP/$example.reference.txt"
  "$bin" --sim-backend=fast --sim-threads=1 > "$TELEMETRY_TMP/$example.fast.txt"
  "$bin" --sim-backend=fast --sim-threads=4 > "$TELEMETRY_TMP/$example.fast4.txt"
  if diff "$TELEMETRY_TMP/$example.reference.txt" \
          "$TELEMETRY_TMP/$example.fast.txt" &&
     diff "$TELEMETRY_TMP/$example.reference.txt" \
          "$TELEMETRY_TMP/$example.fast4.txt"; then
    echo "$example: sim backends byte-identical"
  else
    echo "$example: OUTPUT DIVERGED between sim backends" >&2
    exit 1
  fi
done
# bench_sim aborts internally if any layer's fast result is not bit-exact
# against the reference, so a plain run is the layer-by-layer check.
"$BUILD_DIR/bench/bench_sim" > /dev/null
echo "bench_sim bit-exactness smoke: ok"

echo
echo "=== [9/14] schedule equality: default vs --sched-mode=per-layer ==="
# The fused network schedule is strictly opt-in: with no flag, every
# bench must print exactly what an explicit --sched-mode=per-layer run
# prints (bench_ria_analysis takes no CLI flags, so its per-layer leg
# pins the FUSE_SCHED_MODE env override instead).
for bench in "${GOLDEN_BENCHES[@]}"; do
  bin="$REPO_ROOT/$BUILD_DIR/bench/$bench"
  [ -x "$bin" ] || { echo "missing $bin" >&2; exit 1; }
  extra=()
  if [ "$bench" = bench_accuracy_synth ]; then
    extra+=(--seeds=1 --epochs=2 --train=64 --eval=32)
  fi
  if [ "$bench" = bench_ria_analysis ]; then
    ok=$(diff <("$bin" | filter_bench_output) \
              <(FUSE_SCHED_MODE=per-layer "$bin" | filter_bench_output) \
           > /dev/null && echo yes || echo no)
  else
    ok=$(diff <("$bin" "${extra[@]}" | filter_bench_output) \
              <("$bin" --sched-mode=per-layer "${extra[@]}" \
                 | filter_bench_output) > /dev/null && echo yes || echo no)
  fi
  if [ "$ok" = yes ]; then
    echo "$bench: default schedule matches per-layer"
  else
    echo "$bench: OUTPUT CHANGED under the default schedule mode" >&2
    exit 1
  fi
done

echo
echo "=== [10/14] telemetry export: profile_network JSON validity ==="
"$BUILD_DIR/examples/profile_network" --net mobilenet_v2 --variant fuse_full \
  --trace-json "$TELEMETRY_TMP/profile.json" \
  --stats-json "$TELEMETRY_TMP/profile.stats.json"
# The fused-schedule view exports through the same sink and must also
# produce valid JSON (segment spans, SRAM counter track, prefetch spans),
# plus the cycle-attribution report and its counter track.
"$BUILD_DIR/examples/profile_network" --net mobilenet_v2 --variant fuse_full \
  --sched-mode=fused \
  --trace-json "$TELEMETRY_TMP/profile.fused.json" \
  --stats-json "$TELEMETRY_TMP/profile.fused.stats.json" \
  --attribution-json "$TELEMETRY_TMP/profile.attribution.json"
python3 - "$TELEMETRY_TMP" <<'EOF'
import glob, json, os, sys
tmp = sys.argv[1]
paths = sorted(glob.glob(os.path.join(tmp, "*.json")))
assert paths, "no telemetry JSON written"
for path in paths:
    with open(path) as f:
        doc = json.load(f)
    if os.path.basename(path).endswith(
            ("trace.json", "profile.json", "profile.fused.json")):
        assert doc["traceEvents"], f"{path}: empty traceEvents"
# The attribution decomposition must sum back to its own totals, layer
# by layer and across the whole network (the binary FUSE_CHECKs the
# deeper identities; this re-checks the exported JSON independently).
with open(os.path.join(tmp, "profile.attribution.json")) as f:
    attr = json.load(f)
totals = attr["totals"]
assert sum(l["cycles"] for l in attr["layers"]) == totals["cycles"]
for l in attr["layers"]:
    assert l["compute_cycles"] + l["fill_drain_cycles"] == l["cycles"], \
        f"layer {l['name']}: split does not sum"
assert totals["compute_cycles"] + totals["fill_drain_cycles"] \
    == totals["cycles"]
assert totals["cycles"] + totals["dram_stall_cycles"] \
    == totals["bound_cycles"]
print(f"{len(paths)} telemetry JSON files parsed; attribution sums check")
EOF

echo
echo "=== [11/14] perf-regression lab: bench_compare vs committed baselines ==="
# Fresh machine-readable artifacts from the two deterministic-core
# benches, diffed against the committed baselines. Cycle counts, MAC and
# byte totals, and roofline bounds are model outputs and must reproduce
# exactly on any machine; the wall-clock columns (bench_sim's *_ms and
# speedups) were recorded elsewhere and only warn.
"$BUILD_DIR/bench/bench_fusion" --json="$TELEMETRY_TMP/BENCH_fusion.json" \
  > /dev/null
"$BUILD_DIR/bench/bench_sim" --json="$TELEMETRY_TMP/BENCH_sim.json" \
  > /dev/null
python3 tools/bench_compare.py results/BENCH_fusion.json \
  "$TELEMETRY_TMP/BENCH_fusion.json"
python3 tools/bench_compare.py results/BENCH_sim.json \
  "$TELEMETRY_TMP/BENCH_sim.json"
# The gate must actually gate: a single perturbed deterministic metric
# has to turn into a nonzero exit.
python3 - "$TELEMETRY_TMP" <<'EOF'
import json, os, sys
tmp = sys.argv[1]
with open(os.path.join(tmp, "BENCH_fusion.json")) as f:
    doc = json.load(f)
doc["rows"][0]["compute_cycles"] += 1
with open(os.path.join(tmp, "BENCH_fusion.perturbed.json"), "w") as f:
    json.dump(doc, f)
EOF
if python3 tools/bench_compare.py results/BENCH_fusion.json \
     "$TELEMETRY_TMP/BENCH_fusion.perturbed.json" --quiet; then
  echo "bench_compare FAILED to flag a perturbed baseline" >&2
  exit 1
fi
echo "bench_compare: perturbed artifact correctly rejected"
# History ledger round-trip: a record_bench.sh entry in a scratch ledger
# must compare clean against the raw artifact it wraps.
FUSE_HISTORY_DIR="$TELEMETRY_TMP/history" tools/record_bench.sh \
  "$TELEMETRY_TMP/BENCH_fusion.json"
python3 tools/bench_compare.py "$TELEMETRY_TMP/history/BENCH_fusion.jsonl" \
  "$TELEMETRY_TMP/BENCH_fusion.json" --quiet

echo
echo "=== [12/14] serving lab: bench_serve + serve_demo determinism ==="
# bench_serve FUSE_CHECKs the >= 2x dynamic-batching gate internally, so
# a clean exit is the throughput claim. The artifact must be
# byte-identical between worker counts: every number in it is a
# virtual-cycle scheduling decision or a seeded payload checksum, none
# of which may depend on payload-thread interleaving.
"$BUILD_DIR/bench/bench_serve" --workers=1 \
  --json="$TELEMETRY_TMP/BENCH_serve.w1.json" > /dev/null
"$BUILD_DIR/bench/bench_serve" --workers=4 \
  --json="$TELEMETRY_TMP/BENCH_serve.w4.json" > /dev/null
if diff "$TELEMETRY_TMP/BENCH_serve.w1.json" \
        "$TELEMETRY_TMP/BENCH_serve.w4.json"; then
  echo "bench_serve: artifact byte-identical across --workers=1/4"
else
  echo "bench_serve: ARTIFACT DIVERGED between worker counts" >&2
  exit 1
fi
python3 - "$TELEMETRY_TMP/BENCH_serve.w1.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["metric_families"] == {"exact": ["*"]}, \
    "BENCH_serve must declare every metric exact"
speedups = [r["speedup_vs_b1"] for r in doc["rows"]
            if r.get("experiment") == "saturation"]
assert speedups and max(speedups) >= 2.0, \
    f"serving gate: best speedup {max(speedups, default=0)} < 2x"
assert any(r.get("experiment") == "rate_sweep" for r in doc["rows"])
assert any(r.get("experiment") == "multi_tenant" for r in doc["rows"])
print(f"BENCH_serve.json valid; best saturation speedup "
      f"{max(speedups):.2f}x (gate >= 2x)")
EOF
python3 tools/bench_compare.py results/BENCH_serve.json \
  "$TELEMETRY_TMP/BENCH_serve.w1.json"
# The family declaration must actually bite: speedup_vs_b1 looks like a
# wall-clock metric by name, so only the metric_families machinery makes
# this small perturbation a hard failure.
python3 - "$TELEMETRY_TMP" <<'EOF'
import json, os, sys
tmp = sys.argv[1]
with open(os.path.join(tmp, "BENCH_serve.w1.json")) as f:
    doc = json.load(f)
for row in doc["rows"]:
    if "speedup_vs_b1" in row:
        row["speedup_vs_b1"] *= 1.05  # well inside the wall tolerance
with open(os.path.join(tmp, "BENCH_serve.perturbed.json"), "w") as f:
    json.dump(doc, f)
EOF
if python3 tools/bench_compare.py results/BENCH_serve.json \
     "$TELEMETRY_TMP/BENCH_serve.perturbed.json" --quiet; then
  echo "bench_compare FAILED to gate a perturbed exact-family metric" >&2
  exit 1
fi
echo "bench_compare: perturbed speedup_vs_b1 correctly rejected"
# serve_demo replays a canned trace; its whole printout (scheduling
# table, percentiles, metrics registry) must be reproducible.
"$BUILD_DIR/examples/serve_demo" > "$TELEMETRY_TMP/serve_demo.a.txt"
"$BUILD_DIR/examples/serve_demo" > "$TELEMETRY_TMP/serve_demo.b.txt"
if diff "$TELEMETRY_TMP/serve_demo.a.txt" "$TELEMETRY_TMP/serve_demo.b.txt"
then
  echo "serve_demo: replay byte-deterministic"
else
  echo "serve_demo: OUTPUT DIVERGED between runs" >&2
  exit 1
fi

echo
echo "=== [13/14] design-space lab: bench_dse equality + frontier determinism ==="
# A plain run is already the evaluator-equality grid and the >= 10x
# throughput gate (both FUSE_CHECKed inside the binary). The two legs
# here additionally pin thread-count determinism: stdout (minus "# "
# wall-clock footers) and the frontier CSV may not differ by a byte
# between a serial uncached run and an 8-thread memoized one.
for leg in "t1 --threads=1 --no-cache" "t8 --threads=8"; do
  set -- $leg
  tag="$1"; shift
  dir="$TELEMETRY_TMP/bench_dse.$tag"
  mkdir -p "$dir"
  (cd "$dir" && "$REPO_ROOT/$BUILD_DIR/bench/bench_dse" "$@" --csv \
     --json="$dir/BENCH_dse.json" | filter_bench_output > stdout.txt)
done
if diff "$TELEMETRY_TMP/bench_dse.t1/stdout.txt" \
        "$TELEMETRY_TMP/bench_dse.t8/stdout.txt" &&
   diff "$TELEMETRY_TMP/bench_dse.t1/bench_dse.csv" \
        "$TELEMETRY_TMP/bench_dse.t8/bench_dse.csv"; then
  echo "bench_dse: stdout and frontier CSV byte-identical across threads"
else
  echo "bench_dse: OUTPUT DIVERGED between thread counts" >&2
  exit 1
fi
python3 tools/bench_compare.py results/BENCH_dse.json \
  "$TELEMETRY_TMP/bench_dse.t1/BENCH_dse.json"
# The frontier rows are exact by declaration: nudging one latency within
# what a wall-clock tolerance would forgive must still fail the gate.
python3 - "$TELEMETRY_TMP" <<'EOF'
import json, os, sys
tmp = sys.argv[1]
with open(os.path.join(tmp, "bench_dse.t1", "BENCH_dse.json")) as f:
    doc = json.load(f)
doc["rows"][0]["latency_ms"] *= 1.01
with open(os.path.join(tmp, "BENCH_dse.perturbed.json"), "w") as f:
    json.dump(doc, f)
EOF
if python3 tools/bench_compare.py results/BENCH_dse.json \
     "$TELEMETRY_TMP/BENCH_dse.perturbed.json" --quiet; then
  echo "bench_compare FAILED to gate a perturbed frontier latency" >&2
  exit 1
fi
echo "bench_compare: perturbed frontier latency correctly rejected"

echo
echo "=== [14/14] benchmark harness smoke: perfbench, all four workloads ==="
# --smoke runs one clean round of ops (every check must pass), then one
# round that feeds every check a corrupted output (each must fail).
for workload in table_sweep design_sweep host_infer array_sim; do
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
    --trace 0 --smoke
done

echo
echo "all checks passed"
