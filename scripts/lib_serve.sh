# Shared server lifecycle for the serving scripts (read_sweep.sh,
# shard_sweep.sh, serve_smoke.sh, recover_smoke.sh). Source it after
# setting:
#
#   SERVE_TAG  message prefix, normally the script name
#   MC3        path to the mc3 binary
#   WORKLOAD   workload CSV to serve
#   PORT_FILE  where `mc3 serve` writes its ephemeral port
#
# Every function prints "$SERVE_TAG: ..." diagnostics to stderr and returns
# 1 on failure, so under `set -e` a failed start or drain ends the script
# with exit 1.

SERVER_PID=""

# serve_start LOG WHAT [serve flags...]
# Starts `mc3 serve $WORKLOAD --listen 0 --default-cost 2 [flags]` in the
# background with its output in LOG, and waits up to 10 s for the port file.
# WHAT names the server in messages (e.g. "server (--shards 4)").
serve_start() {
  local log="$1" what="$2"
  shift 2
  rm -f "$PORT_FILE"
  "$MC3" serve "$WORKLOAD" --listen 0 --port-file "$PORT_FILE" \
    --default-cost 2 "$@" >"$log" 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$PORT_FILE" ] && return 0
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
      echo "$SERVE_TAG: $what exited before listening" >&2
      cat "$log" >&2
      return 1
    fi
    sleep 0.1
  done
  echo "$SERVE_TAG: timed out waiting for the $what port file" >&2
  serve_kill
  cat "$log" >&2
  return 1
}

# serve_wait LOG WHAT
# Waits for a server that was told to drain (loadgen --shutdown) and fails
# unless it exited 0.
serve_wait() {
  local log="$1" what="$2"
  local pid="$SERVER_PID"
  SERVER_PID=""
  if ! wait "$pid"; then
    echo "$SERVE_TAG: $what exited non-zero after drain" >&2
    cat "$log" >&2
    return 1
  fi
}

# serve_kill: SIGKILLs and reaps the running server, if any. Safe as an
# EXIT trap.
serve_kill() {
  if [ -n "$SERVER_PID" ]; then
    kill -9 "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=""
  fi
}
