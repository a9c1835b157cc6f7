#!/usr/bin/env bash
# Reproduces everything: build, full test suite, the paper's series, every
# benchmark, the trace/metrics exports, and the QoS report with its
# regression check.
#
# All artifacts of one invocation land in experiments_out/<UTC timestamp>/:
#   test_output.txt           full ctest transcript
#   paper_series.md           the paper's series (tools/hds_paper), equal to
#                             docs/paper_series.md when the tests pass
#   bench_output.txt          every benchmark's console output
#   <bench>_metrics.json      per-benchmark metrics snapshot (--metrics-json)
#   fig8_trace.json / .jsonl  structured event log exports
#   cluster_fig8/             3-process UDP deployment: per-node configs,
#                             stdout/stderr, metrics, summary.json
#   qos_report.{json,md}      QoS sweep + regression verdict
#   qos_metrics_*.json        per-sweep-point metrics snapshots
#
# Exits nonzero if the build, the tests, a paper-series property check, or
# the QoS regression check fail.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="experiments_out/$(date -u +%Y%m%dT%H%M%SZ)"
mkdir -p "$OUT"
echo "artifacts: $OUT"

cmake -B build -S .
cmake --build build -j

JOBS="$(nproc 2>/dev/null || echo 1)"

ctest --test-dir build -j "$JOBS" 2>&1 | tee "$OUT/test_output.txt"

build/tools/hds_paper > "$OUT/paper_series.md"
: > "$OUT/bench_output.txt"
for b in build/bench/bench_*; do
  [ -x "$b" ] || continue
  name="$(basename "$b")"
  echo "==== $name ====" | tee -a "$OUT/bench_output.txt"
  "$b" --metrics-json="$OUT/${name}_metrics.json" 2>&1 | tee -a "$OUT/bench_output.txt"
done

# Real multi-process deployment: 3 hds_node processes over loopback UDP run
# Fig. 8 to a verified common decision (per-node stdout/metrics in the dir).
build/tools/hds_cluster --node build/tools/hds_node --stack fig8 --n 3 --t 1 \
  --seed 1 --timeout-ms 60000 --metrics --dir "$OUT/cluster_fig8"

build/tools/trace_export --stack fig8 --n 5 --crashes 1 --seed 1 \
  --chrome "$OUT/fig8_trace.json" \
  --jsonl "$OUT/fig8_events.jsonl" \
  --metrics "$OUT/fig8_metrics.json"

# QoS sweep against the committed baseline; a regression fails the script
# (after everything above has been collected).
qos_status=0
build/tools/hds_report --stack fig8 --n 5 --seed 1 -j "$JOBS" \
  --out-dir "$OUT" --baseline BENCH_qos_baseline.json || qos_status=$?

# Seeded chaos sweep on the parallel engine (case set is -j independent).
build/tools/hds_chaos --fuzz 4 --stack all --seed-base 1 -j "$JOBS" \
  --out "$OUT/chaos_repro.json"

echo "done: artifacts in $OUT"
if [ "$qos_status" -ne 0 ]; then
  echo "QoS regression check FAILED (exit $qos_status); see $OUT/qos_report.md" >&2
  exit "$qos_status"
fi
