#!/usr/bin/env bash
# QPS-vs-shards sweep (docs/serving.md#sharded-serving): run the same
# churn-heavy multi-tenant loadgen mix against `mc3 serve --listen` at
# increasing shard counts and report sustained committed update throughput
# (the server-side per-shard op totals over the run's wall clock, from the
# loadgen's machine-parsable "sweep:" line).
#
# With --gate, the run fails (exit 1) unless 4 shards sustain at least
# MIN_SPEEDUP x the single-shard throughput — the acceptance bar for the
# sharded serving work. The gate needs real parallel hardware: on a host
# with fewer than 4 CPUs the shard workers time-slice one core and no
# wall-clock speedup is physically possible (see EXPERIMENTS.md), so the
# gate auto-skips (exit 0, loud message) instead of reporting a bogus
# failure. Without --gate the sweep just prints the table.
#
# The default mix is deliberately engine-bound (measured in
# EXPERIMENTS.md: resolve is ~98% of engine time at these knobs): long
# enough queries that the general solver dominates, small per-tenant pools
# so the classifier table stays cheap to price, and enough tenants that
# hash placement spreads components across shards.
#
# Usage: scripts/shard_sweep.sh [build-dir] [--gate] [--shards "1 2 4"]
#                               [--ops N] [--qps Q]
# Artifacts (reports + logs) are left in ./shard_sweep_artifacts.
set -euo pipefail

BUILD_DIR="build"
GATE=0
SHARDS="1 2 4"
OPS=3000
QPS=100000
MIN_SPEEDUP=2.0

while [ $# -gt 0 ]; do
  case "$1" in
    --gate) GATE=1; shift ;;
    --shards) SHARDS="$2"; shift 2 ;;
    --ops) OPS="$2"; shift 2 ;;
    --qps) QPS="$2"; shift 2 ;;
    -*) echo "shard_sweep: unknown flag $1" >&2; exit 2 ;;
    *) BUILD_DIR="$1"; shift ;;
  esac
done

SERVE_TAG="shard_sweep"
MC3="$BUILD_DIR/tools/mc3"
LOADGEN="$BUILD_DIR/tools/mc3_loadgen"
ART_DIR="shard_sweep_artifacts"

for bin in "$MC3" "$LOADGEN"; do
  if [ ! -x "$bin" ]; then
    echo "shard_sweep: missing binary $bin (build mc3 and mc3_loadgen first)" >&2
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

# Runs one shard count; appends "<shards> <ops_per_sec>" to RESULTS.
RESULTS=""
run_point() {
  local shards="$1"
  local log="$ART_DIR/server_${shards}.log"
  local out="$ART_DIR/loadgen_${shards}.log"
  serve_start "$log" "server (--shards $shards)" --shards "$shards"

  # Churn-heavy mix: all-update traffic (no interleaved solves), removes on
  # every third update, a saturating arrival rate so throughput is
  # server-bound, and 16 disjoint tenant pools so hash placement spreads
  # components over every shard and a coalesced batch fans out across all
  # of them. 12-property pools with length-4 queries keep the classifier
  # table small (pricing stays cheap) while components grow to hundreds of
  # live queries, which is where the per-shard solver work dominates.
  "$LOADGEN" --port-file "$PORT_FILE" --qps "$QPS" --ops "$OPS" \
    --burst "$OPS" --connections 8 --solve-every 0 --remove-every 3 \
    --tenants 16 --properties 12 --query-length 4 \
    --shutdown --report "$ART_DIR/load_report_${shards}.json" \
    >"$out" 2>&1
  serve_wait "$log" "server (--shards $shards)"

  local line
  line=$(grep '^sweep: ' "$out" | tail -1)
  if [ -z "$line" ]; then
    echo "shard_sweep: loadgen printed no sweep line for --shards $shards" >&2
    cat "$out" >&2
    exit 1
  fi
  local ops_per_sec
  ops_per_sec=$(echo "$line" | sed -n 's/.*ops_per_sec=\([0-9.]*\).*/\1/p')
  RESULTS="$RESULTS$shards $ops_per_sec"$'\n'
  echo "  shards=$shards  ops_per_sec=$ops_per_sec"
}

echo "shard_sweep: committed update throughput (ops/sec) by shard count"
for shards in $SHARDS; do
  run_point "$shards"
done

BASE=$(echo "$RESULTS" | awk '$1 == 1 {print $2}')
AT4=$(echo "$RESULTS" | awk '$1 == 4 {print $2}')
if [ -n "$BASE" ] && [ -n "$AT4" ]; then
  SPEEDUP=$(awk "BEGIN{printf \"%.2f\", ($AT4) / ($BASE)}")
  echo "shard_sweep: 4-shard speedup over 1 shard: ${SPEEDUP}x"
  if [ "$GATE" -eq 1 ]; then
    CPUS=$(nproc 2>/dev/null || echo 1)
    if [ "$CPUS" -lt 4 ]; then
      echo "shard_sweep: SKIP gate — only $CPUS CPU(s); 4 shard workers" \
           "cannot run in parallel, so the >=${MIN_SPEEDUP}x bar is" \
           "unmeasurable here (see EXPERIMENTS.md)"
    else
      PASS=$(awk "BEGIN{print (($AT4) >= $MIN_SPEEDUP * ($BASE)) ? 1 : 0}")
      if [ "$PASS" -ne 1 ]; then
        echo "shard_sweep: FAIL — need >= ${MIN_SPEEDUP}x" >&2
        exit 1
      fi
    fi
  fi
fi

echo "shard_sweep: OK"
