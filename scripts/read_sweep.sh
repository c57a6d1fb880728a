#!/usr/bin/env bash
# Read-latency-under-churn sweep (docs/serving.md#lock-free-reads): drive
# `mc3 serve --listen` with the same multi-tenant loadgen mix at two points
# and report per-verb latency from the loadgen's machine-parsable
# "read_sweep:" line:
#
#   * idle  — every op is a read (--read-ratio 1.0): the engine never
#             applies a batch, so this is the read path's own floor. It
#             runs IDLE_RUNS (5) times and the median read p99 is kept:
#             one idle run is a noisy denominator;
#   * churn — the 95/5 read-heavy churn mix (--read-ratio 0.95): updates
#             arrive fast enough that the coalescer keeps folding batches.
#
# The interesting number is read p99. Reads render from published views on
# the connection threads and never wait behind write batches, so churn
# should cost them little over idle.
#
# With --gate, the run fails (exit 1) unless the churn read p99 is at most
# MAX_FACTOR x the median idle read p99. The comparison needs real parallel
# hardware — with fewer than 4 CPUs the connection workers, the apply
# thread and the loadgen time-slice one core and queueing delay is noise
# (see EXPERIMENTS.md) — so on a small host the gate auto-skips (exit 0,
# loud message) instead of reporting a bogus verdict. Without --gate the
# sweep just prints the table.
#
# Usage: scripts/read_sweep.sh [build-dir] [--gate] [--ratio R]
#                              [--ops N] [--qps Q]
# (--ratio sets the churn point's read ratio.)
# Artifacts (reports + logs) are left in ./read_sweep_artifacts; the
# repeated idle runs are named idle, idle_2, ..., idle_5.
set -euo pipefail

BUILD_DIR="build"
GATE=0
RATIO=0.95
OPS=4000
QPS=100000
# On 4 CPUs the lock-free path measured 0.8-8.2x; reads that queued behind
# write batches measured 46-197x (EXPERIMENTS.md, "Lock-free reads").
MAX_FACTOR=20
# A single idle run's read p99 ranged 0.26-3.48 ms on 4 CPUs; at 2.45 ms,
# F = 20 would pass a 49 ms churn p99. The median of 3 still moved
# 0.66-1.63 ms across gate runs, so the gate takes the median of 5.
IDLE_RUNS=5

while [ $# -gt 0 ]; do
  case "$1" in
    --gate) GATE=1; shift ;;
    --ratio) RATIO="$2"; shift 2 ;;
    --ops) OPS="$2"; shift 2 ;;
    --qps) QPS="$2"; shift 2 ;;
    -*) echo "read_sweep: unknown flag $1" >&2; exit 2 ;;
    *) BUILD_DIR="$1"; shift ;;
  esac
done

SERVE_TAG="read_sweep"
MC3="$BUILD_DIR/tools/mc3"
LOADGEN="$BUILD_DIR/tools/mc3_loadgen"
ART_DIR="read_sweep_artifacts"

for bin in "$MC3" "$LOADGEN"; do
  if [ ! -x "$bin" ]; then
    echo "read_sweep: missing binary $bin (build mc3 and mc3_loadgen first)" >&2
    exit 2
  fi
done

rm -rf "$ART_DIR"
mkdir -p "$ART_DIR"
WORKLOAD="$ART_DIR/workload.csv"
PORT_FILE="$ART_DIR/port"
# shellcheck source=scripts/lib_serve.sh
source "$(dirname "$0")/lib_serve.sh"
trap serve_kill EXIT

"$MC3" generate --dataset synthetic --n 40 --seed 3 -o "$WORKLOAD"

# Runs one point; prints its row and sets READ_P99 (microseconds).
run_point() {
  local point="$1" ratio="$2"
  local log="$ART_DIR/server_${point}.log"
  local out="$ART_DIR/loadgen_${point}.log"
  serve_start "$log" "server ($point)"

  # A `ratio` share of the ops are solves; the rest (none at the idle
  # point) are updates, removing every third one, that arrive fast enough
  # for the coalescer to keep folding batches. The tenant/property knobs
  # mirror shard_sweep.sh so the write side stays engine-bound.
  "$LOADGEN" --port-file "$PORT_FILE" --qps "$QPS" --ops "$OPS" \
    --burst 64 --connections 8 --read-ratio "$ratio" --remove-every 3 \
    --tenants 16 --properties 12 --query-length 4 \
    --shutdown --report "$ART_DIR/load_report_${point}.json" \
    >"$out" 2>&1
  serve_wait "$log" "server ($point)"

  local line
  line=$(grep '^read_sweep: ' "$out" | tail -1)
  if [ -z "$line" ]; then
    echo "read_sweep: loadgen printed no read_sweep line ($point point)" >&2
    cat "$out" >&2
    exit 1
  fi
  local write_p99
  READ_P99=$(echo "$line" | sed -n 's/.*read_p99_us=\([0-9.]*\).*/\1/p')
  write_p99=$(echo "$line" | sed -n 's/.*write_p99_us=\([0-9.]*\).*/\1/p')
  echo "  point=$point  read_ratio=$ratio  read_p99_us=$READ_P99" \
       " write_p99_us=$write_p99"
}

echo "read_sweep: read/write p99 (us) on the lock-free read path"
IDLE_P99S=()
for i in $(seq 1 "$IDLE_RUNS"); do
  point=idle
  if [ "$i" -gt 1 ]; then point="idle_$i"; fi
  run_point "$point" 1.0
  IDLE_P99S+=("$READ_P99")
done
IDLE=$(printf '%s\n' "${IDLE_P99S[@]}" | sort -g |
       sed -n "$(( (IDLE_RUNS + 1) / 2 ))p")
echo "read_sweep: median idle read p99 over $IDLE_RUNS runs: $IDLE us"
run_point churn "$RATIO"
CHURN="$READ_P99"

REL=$(awk "BEGIN{printf \"%.2f\", ($CHURN) / ($IDLE)}")
echo "read_sweep: churn read p99 is ${REL}x the median idle read p99"
if [ "$GATE" -eq 1 ]; then
  CPUS=$(nproc 2>/dev/null || echo 1)
  if [ "$CPUS" -lt 4 ]; then
    echo "read_sweep: SKIP gate — only $CPUS CPU(s); reads, the apply" \
         "thread and the loadgen time-slice one core so queueing delay" \
         "is unmeasurable here (see EXPERIMENTS.md)"
  else
    PASS=$(awk "BEGIN{print (($CHURN) <= $MAX_FACTOR * ($IDLE)) ? 1 : 0}")
    if [ "$PASS" -ne 1 ]; then
      echo "read_sweep: FAIL — churn read p99 must be <=" \
           "${MAX_FACTOR}x the median idle read p99" >&2
      exit 1
    fi
  fi
fi

echo "read_sweep: OK"
