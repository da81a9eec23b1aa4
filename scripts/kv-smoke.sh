#!/usr/bin/env bash
# KV service smoke test: build cmd/onefile-kv, start it file-backed on
# tmpfs, drive a load burst over real sockets through the bench harness
# (onefile-bench -fig kv -kv-addr) and a pipelined burst of dependent
# commands, assert the service and engine metric families moved (the drain
# histogram among them) and that /debug/vars and /debug/flightrecorder
# expose the engine's histograms and commits, SIGTERM for a graceful drain,
# then reopen the same file and verify the loaded keys survived the
# shutdown. Run from the repository root; CI's kv-smoke job runs exactly
# this script.
set -euo pipefail

addr="${1:-127.0.0.1:16380}"
maddr="${2:-127.0.0.1:16381}"
keys=2048

dir=$(mktemp -d "${TMPDIR:-/dev/shm}/kv-smoke.XXXXXX" 2>/dev/null || mktemp -d)
file="$dir/kv.img"
log="$dir/server.log"
pid=""

cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$dir"
}
trap cleanup EXIT

fail() { echo "kv-smoke: $1" >&2; [ -f "$log" ] && sed 's/^/  server: /' "$log" >&2; exit 1; }

go build -o "$dir/onefile-kv" ./cmd/onefile-kv
go build -o "$dir/onefile-bench" ./cmd/onefile-bench

start_server() {
  "$dir/onefile-kv" -addr "$addr" -metrics "$maddr" -file "$file" \
    -heap $((1 << 18)) -buckets $((1 << 12)) >"$log" 2>&1 &
  pid=$!
  for _ in $(seq 1 100); do
    grep -q 'listening on' "$log" 2>/dev/null && return 0
    kill -0 "$pid" 2>/dev/null || fail "server died during startup"
    sleep 0.1
  done
  fail "server never printed its ready line"
}

# resp_cmd sends one RESP command over /dev/tcp and prints the first reply
# line (CR stripped) — enough of a client for PING/DBSIZE assertions.
resp_cmd() {
  local host="${addr%:*}" port="${addr##*:}" req="" reply
  req="*$#\r\n"
  for a in "$@"; do req+="\$${#a}\r\n${a}\r\n"; done
  exec 3<>"/dev/tcp/$host/$port"
  printf '%b' "$req" >&3
  IFS= read -r -t 5 reply <&3 || fail "no reply to $1"
  exec 3>&- 3<&-
  printf '%s' "${reply%$'\r'}"
}

start_server

# Load burst through the real harness: fills $keys keys, then runs every
# mix against the external server over real sockets.
"$dir/onefile-bench" -fig kv -kv-addr "$addr" -quick -dur 200ms -keys "$keys" \
  || fail "bench harness burst failed"

[ "$(resp_cmd PING)" = "+PONG" ] || fail "PING did not answer PONG"
[ "$(resp_cmd DBSIZE)" = ":$keys" ] || fail "DBSIZE $(resp_cmd DBSIZE) != :$keys after load"

# A pipelined burst in one write — dependent commands the handler takes as
# one drain: every reply, in order, as sequential round trips would give.
exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
printf 'SET smoke:k a\r\nGET smoke:k\r\nINCR smoke:n\r\nINCR smoke:n\r\nDEL smoke:k smoke:n\r\nDBSIZE\r\n' >&3
burst=""
for _ in 1 2 3 4 5 6 7; do
  IFS= read -r -t 5 line <&3 || fail "pipelined burst: reply missing after '$burst'"
  burst+="${line%$'\r'} "
done
exec 3>&- 3<&-
[ "$burst" = "+OK \$1 a :1 :2 :2 :$keys " ] || fail "pipelined burst answered '$burst'"

metrics=$(curl -fs "http://$maddr/metrics") || fail "metrics endpoint unreachable"
vars=$(curl -fs "http://$maddr/debug/vars") || fail "/debug/vars unreachable"
rec=$(curl -fs "http://$maddr/debug/flightrecorder") || fail "/debug/flightrecorder unreachable"

require_nonzero() {
  local fam="$1" line val
  line=$(grep -E "^${fam} " <<<"$metrics" | head -1)
  [ -n "$line" ] || fail "missing metric family ${fam}"
  val=${line##* }
  awk -v v="$val" 'BEGIN { exit (v+0 > 0 ? 0 : 1) }' \
    || fail "metric family ${fam} is zero after load: ${line}"
}

# Service counters and the engine underneath must both be moving: RESP
# commands served, connections accepted, latency samples recorded, and the
# persistent engine's update and read commits, write-backs and ordering
# points behind them.
for fam in \
  kv_cmd_get_total \
  kv_cmd_set_total \
  kv_connections_total \
  kv_get_latency_count \
  kv_set_latency_count \
  kv_drain_commands_count \
  onefile_of_lf_ptm_commits_total \
  onefile_of_lf_ptm_read_commits_total \
  onefile_of_lf_ptm_batches_total \
  onefile_of_lf_ptm_pwb_total \
  onefile_of_lf_ptm_pdrain_total \
  onefile_of_lf_ptm_update_latency_ns_count \
  onefile_of_lf_ptm_read_latency_ns_count; do
  require_nonzero "$fam"
done

# The engine's latency histograms in both expositions, and its commits in
# the flight recorder.
grep -q '# TYPE onefile_of_lf_ptm_update_latency_ns histogram' <<<"$metrics" \
  || fail "/metrics missing histogram TYPE line"
grep -q '"onefile_of_lf_ptm_update_latency_ns"' <<<"$vars" \
  || fail "/debug/vars missing latency histogram summary"
grep -q '"p99"' <<<"$vars" \
  || fail "/debug/vars histogram summary has no percentiles"
grep -q '"kind": "commit"' <<<"$rec" \
  || fail "/debug/flightrecorder has no commit events"

# Graceful drain: SIGTERM must flush pending work, close the device with a
# clean superblock, and exit 0.
kill -TERM "$pid"
if ! wait "$pid"; then fail "server exited non-zero on SIGTERM"; fi
pid=""
grep -q 'clean shutdown' "$log" || fail "no clean-shutdown line after SIGTERM"

# Clean reopen: the same file must attach without recovery drama and still
# hold every loaded key.
start_server
[ "$(resp_cmd DBSIZE)" = ":$keys" ] || fail "reopen lost keys: DBSIZE $(resp_cmd DBSIZE) != :$keys"
[ "$(resp_cmd GET k0000000)" = "\$16" ] || fail "reopen lost k0000000"
kill -TERM "$pid"
wait "$pid" || fail "second shutdown exited non-zero"
pid=""

echo "kv-smoke: OK ($keys keys survived drain + reopen)"
