#!/usr/bin/env bash
# Tier-1 verification plus a serving-layer smoke run.
#
#   tools/run_checks.sh [build-dir]
#
# 1. Configure + build everything (library, CLI, examples, benches,
#    tests).
# 2. Run the full ctest suite.
# 3. Exercise `tcf serve` end-to-end: generate a small synthetic
#    network, build + persist a TC-Tree index (TCFI, the one index
#    format), synthesize a 1000-query workload, and serve it twice —
#    the warm pass must report a nonzero cache hit rate.
# 4. Exercise the network path: start `tcf serve --listen` on an
#    ephemeral port, drive it with `tcf client` (ping, queries, the
#    workload both as one-request round trips and as pipelined BATCH
#    exchanges, STATS — including the subset-composable cache's
#    cache_partial_hits counter going positive, `queries` advancing by
#    exactly the workload's line count and ordered nonzero
#    percentiles — a METRICS scrape whose
#    query counter advances across a query, an EXPLAIN carrying every
#    stage span, a RELOAD of a rebuilt index, QUIT), prove the server
#    survives an abruptly closed
#    connection (a peer that dies mid-BATCH), assert every client exit
#    code, check the server does not leak file descriptors across all of
#    that traffic, and check it shuts down cleanly on SIGTERM.
# 5. Streaming-update smoke: push an UPDATE over the wire with
#    `tcf client --update-tx/--update-edge`, check the STATS `updates`
#    counter advances, and prove post-update answers match a second
#    server whose index was rebuilt from scratch over the mutated
#    network (the rebuild oracle, byte-for-byte on client output).
# 6. Repeat the network path against `tcf serve --shards=2`: the sharded
#    backend must answer the same traffic, STATS must expose the shard
#    counters (shards / shard_queries / shard_reload_ms), EXPLAIN must
#    report shards_probed, RELOAD must roll shard by shard, and METRICS
#    must carry the unsharded server's families (per-shard
#    tcf_shard<N>_ names aside).
# 7. TCFI zero-copy snapshot smoke: `tcf index --slices=2`, query
#    parity of the mapped file vs. an in-process build, `--format=tcft`
#    refused, clean rejection of torn and bit-flipped files,
#    RELOAD-to-mmap on a live server (torn RELOAD fails the client,
#    server keeps serving), and `--shards=2` serving straight from the
#    mapped slice files, then taking the update smoke's UPDATE and
#    answering like its rebuild oracle.
# 8. Overload smoke: a server armed with the walk.deadline failpoint and
#    a tight --rate-limit-qps must refuse cleanly over the wire — every
#    refusal a parseable ERR DeadlineExceeded / ERR RateLimited line,
#    the STATS counters advancing, PING and STATS still exempt and
#    healthy throughout (docs/robustness.md).
#
# CI-friendly: every smoke failure exits non-zero (set -e covers the
# backgrounded server through explicit guards), worker counts fall back
# when `nproc` is missing, and the /proc fd-leak check is skipped — not
# failed — on runners without /proc (macOS).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
# nproc is Linux-only; macOS CI runners spell it sysctl.
NPROC="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== configure + build =="
cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$NPROC"

echo "== ctest =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$NPROC"

echo "== serve smoke =="
TMP="$(mktemp -d)"
SERVER_PID=""
ORACLE_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  [ -n "$ORACLE_PID" ] && kill "$ORACLE_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT
TCF="$BUILD_DIR/tcf"

"$TCF" generate --kind=syn --out="$TMP/smoke.net" --scale=0.2 --seed=7
"$TCF" index --in="$TMP/smoke.net" --out="$TMP/smoke.idx" --threads=2

# 1000 queries over the syn items (named s0..): a mix of alphas and
# 1-3 item themes, with guaranteed repeats so the warm pass hits.
{
  echo "# run_checks smoke workload"
  for i in $(seq 0 999); do
    a=$((i % 4))
    echo "0.0$a;s$((i % 60)),s$(((i * 7) % 60))"
  done
} > "$TMP/workload.txt"

# --compose-min-us=0 pins the work-aware gate open: this tiny network's
# walks are microseconds, and the smoke must exercise partial reuse
# deterministically, not depend on the gate's latency estimate.
OUT="$("$TCF" serve --in="$TMP/smoke.net" --index="$TMP/smoke.idx" \
        --workload="$TMP/workload.txt" --threads=4 --repeat=2 \
        --compose-min-us=0)"
echo "$OUT"

# The warm pass must report a cache hit rate > 0.
echo "$OUT" | awk '
  /^\| warm1/ {
    # last numeric column is the per-pass hit rate
    rate = $(NF - 1)
    if (rate + 0 > 0) { found = 1 }
  }
  END {
    if (!found) { print "FAIL: warm pass shows no cache hits"; exit 1 }
    print "OK: warm pass cache hit rate > 0"
  }'

echo "== network smoke =="
# Long-lived server on a kernel-assigned port; the log tells us which.
"$TCF" serve --in="$TMP/smoke.net" --index="$TMP/smoke.idx" --listen=0 \
       --threads=4 --compose-min-us=0 > "$TMP/server.log" 2>&1 &
SERVER_PID=$!
PORT=""
for _ in $(seq 100); do
  PORT="$(sed -n 's/.*listening on [^:]*:\([0-9][0-9]*\).*/\1/p' \
          "$TMP/server.log")"
  [ -n "$PORT" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { echo "FAIL: server died on startup";
                                         cat "$TMP/server.log"; exit 1; }
  sleep 0.1
done
[ -n "$PORT" ] || { echo "FAIL: server never reported its port"; exit 1; }
echo "server is up on port $PORT"

# Baseline fd count, taken once the server is idle and listening. Every
# connection the smoke opens below must be returned by the time we
# measure again — an epoll server that forgets to close parked or
# half-dead sockets fails here. /proc is Linux-only; on runners without
# it (macOS) the leak check is skipped, not failed.
HAVE_PROC=0
[ -d "/proc/$SERVER_PID/fd" ] && HAVE_PROC=1
count_fds() { ls "/proc/$SERVER_PID/fd" | wc -l; }
FDS_BEFORE=0
if [ "$HAVE_PROC" = 1 ]; then
  FDS_BEFORE="$(count_fds)"
else
  echo "note: /proc unavailable; skipping the fd-leak check"
fi

# Ping + a query + STATS over one connection (ends with QUIT).
"$TCF" client --port="$PORT" --ping --query="0.01;s1,s2" --stats

# The whole workload over the wire, one request per round trip. The
# workload's 2-item queries overlap heavily without repeating exactly,
# so the subset-composable cache must report partial reuse afterwards.
# STATS is a view over the server's metrics registry: `queries` must
# advance by exactly the workload's line count, and the percentiles
# interpolated from its latency histogram must be positive and ordered.
Q_BEFORE="$("$TCF" client --port="$PORT" --stats \
            | awk '$1 == "queries" { print $2 }')"
"$TCF" client --port="$PORT" --workload="$TMP/workload.txt"
WORKLOAD_LINES="$(grep -vc '^#' "$TMP/workload.txt")"
"$TCF" client --port="$PORT" --stats \
  | awk -v before="$Q_BEFORE" -v lines="$WORKLOAD_LINES" '
  { v[$1] = $2 + 0 }
  END {
    if (v["cache_partial_hits"] <= 0) {
      print "FAIL: no partial cache hits after the workload"; exit 1
    }
    print "OK: composable cache reported partial hits over the wire"
    if (v["queries"] - before != lines) {
      printf "FAIL: STATS queries advanced by %d over a %d-line workload\n",
             v["queries"] - before, lines
      exit 1
    }
    if (!(v["p50_us"] > 0 && v["p50_us"] <= v["p90_us"] &&
          v["p90_us"] <= v["p99_us"] && v["p99_us"] <= v["max_us"])) {
      print "FAIL: STATS percentiles are not 0 < p50 <= p90 <= p99 <= max:",
            v["p50_us"], v["p90_us"], v["p99_us"], v["max_us"]
      exit 1
    }
    print "OK: STATS counted every workload query; percentiles ordered"
  }'

# The same workload as pipelined BATCH exchanges (64 queries per round
# trip): same answers, a fraction of the round trips.
"$TCF" client --port="$PORT" --batch="$TMP/workload.txt" --batch-size=64

# Observability over the wire. METRICS must be scrapeable and its
# query counter must advance between scrapes — the registry observes
# live traffic, not a snapshot.
Q1="$("$TCF" client --port="$PORT" --metrics \
      | awk '$1 == "tcf_queries_total" { print $2 }')"
[ -n "$Q1" ] || { echo "FAIL: METRICS lacks tcf_queries_total"; exit 1; }
"$TCF" client --port="$PORT" --query="0.01;s3,s4"
Q2="$("$TCF" client --port="$PORT" --metrics \
      | awk '$1 == "tcf_queries_total" { print $2 }')"
if [ "${Q2%.*}" -le "${Q1%.*}" ]; then
  echo "FAIL: tcf_queries_total did not advance ($Q1 -> $Q2)"; exit 1
fi
echo "OK: METRICS scrape parses and tcf_queries_total advanced ($Q1 -> $Q2)"
# The family set (name and TYPE) the sharded smoke below must match;
# per-shard families (tcf_shard<N>_...) scale with the shard count.
metric_families() {
  "$TCF" client --port="$1" --metrics | awk '
    $1 == "#" && $2 == "TYPE" && $3 !~ /^tcf_shard[0-9]+_/ { print $3, $4 }
  ' | sort
}
metric_families "$PORT" > "$TMP/families_unsharded.txt"

# EXPLAIN executes the query and answers with its trace: all five
# stage keys, wall and CPU, plus total_us must be present.
"$TCF" client --port="$PORT" --explain="0.01;s1,s2" | awk '
  $1 ~ /^stage_(parse|cache_probe|compose|walk|serialize)_us$/ { w++ }
  $1 ~ /^stage_(parse|cache_probe|compose|walk|serialize)_cpu_us$/ { c++ }
  $1 == "total_us" { t = 1 }
  END {
    if (w != 5 || c != 5 || !t) {
      print "FAIL: EXPLAIN reply incomplete (" w " wall, " c " cpu keys)"
      exit 1
    }
    print "OK: EXPLAIN returned all stage spans and total_us"
  }'

# An abruptly closed connection — a peer that announces a BATCH, sends
# part of the body, and vanishes — must not wedge or kill the server.
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf 'PING\nBATCH 5\n0.01;s1\n0.01;s' >&3
exec 3<&- 3>&-
"$TCF" client --port="$PORT" --ping --query="0.01;s1,s2" \
  || { echo "FAIL: server unhealthy after abrupt close"; exit 1; }
echo "OK: server survived an abruptly closed mid-BATCH connection"

echo "== streaming update smoke =="
# UPDATE over the wire: one transaction + one edge pushed into the live
# index through the client. The STATS `updates` counter must advance.
U1="$("$TCF" client --port="$PORT" --stats \
      | awk '$1 == "updates" { print $2 }')"
[ -n "$U1" ] || { echo "FAIL: STATS lacks the updates counter"; exit 1; }
"$TCF" client --port="$PORT" --update-tx="0:s1,s2" --update-edge="0-1"
U2="$("$TCF" client --port="$PORT" --stats \
      | awk '$1 == "updates" { print $2 }')"
if [ "${U2:-0}" -le "${U1:-0}" ]; then
  echo "FAIL: STATS updates counter did not advance ($U1 -> $U2)"; exit 1
fi
echo "OK: UPDATE accepted over the wire (updates $U1 -> $U2)"

# An update referencing vocabulary the index was never built over must
# be rejected atomically (client exits non-zero, server unharmed).
if "$TCF" client --port="$PORT" --update-tx="0:no_such_item" 2>/dev/null
then
  echo "FAIL: unknown-item update did not fail the client"; exit 1
fi
"$TCF" client --port="$PORT" --ping

# Post-update parity against the rebuild oracle: replay the same
# mutation onto the text network, rebuild an index from scratch, serve
# it from a second server, and require byte-identical client output.
python3 - "$TMP/smoke.net" "$TMP/mutated.net" <<'PY'
import sys
src, dst = sys.argv[1], sys.argv[2]
lines = open(src).read().splitlines()
ids = {p[2]: p[1] for p in (l.split() for l in lines)
       if p and p[0] == "i"}
out = []
i = 0
while i < len(lines):
    parts = lines[i].split()
    if parts and parts[0] == "d" and parts[1] == "0":
        n = int(parts[2])
        out.append(f"d 0 {n + 1}")
        for _ in range(n):
            i += 1
            out.append(lines[i])
        # the transaction --update-tx=0:s1,s2 appended, in insert order
        out.append(f"t {ids['s1']} {ids['s2']}")
    elif parts and parts[0] == "end":
        out.append("e 0 1")  # --update-edge=0-1 (builder dedups)
        out.append(lines[i])
    else:
        out.append(lines[i])
    i += 1
open(dst, "w").write("\n".join(out) + "\n")
PY
"$TCF" index --in="$TMP/mutated.net" --out="$TMP/oracle.idx" --threads=2
"$TCF" serve --in="$TMP/mutated.net" --index="$TMP/oracle.idx" --listen=0 \
       --threads=2 --compose-min-us=0 > "$TMP/server_oracle.log" 2>&1 &
ORACLE_PID=$!
OPORT=""
for _ in $(seq 100); do
  OPORT="$(sed -n 's/.*listening on [^:]*:\([0-9][0-9]*\).*/\1/p' \
           "$TMP/server_oracle.log")"
  [ -n "$OPORT" ] && break
  kill -0 "$ORACLE_PID" 2>/dev/null || { echo "FAIL: oracle server died";
                                         cat "$TMP/server_oracle.log";
                                         exit 1; }
  sleep 0.1
done
[ -n "$OPORT" ] || { echo "FAIL: oracle server never reported its port";
                     exit 1; }
for q in "0;s1,s2" "0.01;s1" "0.02;s2,s3"; do
  "$TCF" client --port="$PORT" --query="$q" >> "$TMP/live.out"
  "$TCF" client --port="$OPORT" --query="$q" >> "$TMP/oracle.out"
done
diff "$TMP/live.out" "$TMP/oracle.out" || {
  echo "FAIL: post-update answers diverge from the rebuild oracle"
  exit 1
}
echo "OK: post-update answers match the from-scratch rebuild oracle"
kill -TERM "$ORACLE_PID"
wait "$ORACLE_PID" || { echo "FAIL: oracle server exited non-zero"; exit 1; }
ORACLE_PID=""

# Hot-reload: rebuild the index (single-threaded this time, same tree)
# and roll it in under the running server, then query again.
"$TCF" index --in="$TMP/smoke.net" --out="$TMP/smoke2.idx" --threads=1
"$TCF" client --port="$PORT" --reload="$TMP/smoke2.idx" \
       --query="0.01;s1,s2" --stats

# A malformed query must fail the client (non-zero exit) without
# killing the server.
if "$TCF" client --port="$PORT" --query="nan;s1" 2>/dev/null; then
  echo "FAIL: malformed query did not fail the client"; exit 1
fi
"$TCF" client --port="$PORT" --ping

# A malformed line inside a BATCH must fail the client the same way,
# and leave the server standing (the bad slot answers ERR; its
# neighbours still answer).
printf '0.01;s1\nnan;s1\n0.01;s2\n' > "$TMP/bad_batch.txt"
if "$TCF" client --port="$PORT" --batch="$TMP/bad_batch.txt" 2>/dev/null
then
  echo "FAIL: malformed batch line did not fail the client"; exit 1
fi
"$TCF" client --port="$PORT" --ping

# No fd leaks: every connection above (client sessions, the workload
# runs, the abruptly closed peer) must be back. Poll briefly — the
# server reaps dead peers asynchronously.
if [ "$HAVE_PROC" = 1 ]; then
  FDS_AFTER="$(count_fds)"
  for _ in $(seq 50); do
    FDS_AFTER="$(count_fds)"
    [ "$FDS_AFTER" -le "$FDS_BEFORE" ] && break
    sleep 0.1
  done
  if [ "$FDS_AFTER" -gt "$FDS_BEFORE" ]; then
    echo "FAIL: server leaks fds ($FDS_BEFORE before traffic," \
         "$FDS_AFTER after)"
    exit 1
  fi
  echo "OK: no fd leak ($FDS_BEFORE fds before traffic, $FDS_AFTER after)"
fi

# Graceful shutdown: SIGTERM, clean exit code, final report printed. The
# kill itself is guarded: a server that already died would otherwise
# fail the script here with a bare `kill` error instead of a diagnosis.
kill -TERM "$SERVER_PID" || { echo "FAIL: server died before SIGTERM";
                              cat "$TMP/server.log"; exit 1; }
wait "$SERVER_PID" || { echo "FAIL: server exited non-zero"; exit 1; }
SERVER_PID=""
grep -q "shutting down" "$TMP/server.log" || {
  echo "FAIL: server log lacks the shutdown banner"; exit 1; }
echo "OK: network smoke (serve --listen / client / RELOAD / shutdown)"

echo "== sharded network smoke (--shards=2) =="
# Same server, hash-partitioned across two shards: answers must be
# indistinguishable from the single-shard path on the wire, STATS must
# expose the shard counters, EXPLAIN must report the scatter fan-out,
# and RELOAD must roll every shard (one rolling swap per shard, never a
# global pause).
"$TCF" serve --in="$TMP/smoke.net" --index="$TMP/smoke.idx" --listen=0 \
       --threads=4 --shards=2 --compose-min-us=0 \
       > "$TMP/server2.log" 2>&1 &
SERVER_PID=$!
PORT=""
for _ in $(seq 100); do
  PORT="$(sed -n 's/.*listening on [^:]*:\([0-9][0-9]*\).*/\1/p' \
          "$TMP/server2.log")"
  [ -n "$PORT" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || {
    echo "FAIL: sharded server died on startup"
    cat "$TMP/server2.log"; exit 1; }
  sleep 0.1
done
[ -n "$PORT" ] || { echo "FAIL: sharded server never reported its port";
                    exit 1; }
echo "sharded server is up on port $PORT"

"$TCF" client --port="$PORT" --ping --query="0.01;s1,s2"
"$TCF" client --port="$PORT" --workload="$TMP/workload.txt"

# STATS must show the sharded backend: shards == 2 and the scatter
# counter strictly positive after the workload.
"$TCF" client --port="$PORT" --stats | awk '
  $1 == "shards" && $2 + 0 == 2 { shards_ok = 1 }
  $1 == "shard_queries" && $2 + 0 > 0 { scatter_ok = 1 }
  END {
    if (!shards_ok) { print "FAIL: STATS does not report shards 2"; exit 1 }
    if (!scatter_ok) { print "FAIL: shard_queries never advanced"; exit 1 }
    print "OK: STATS reports shards=2 and shard_queries > 0"
  }'

# EXPLAIN on a 2-item query must report its scatter fan-out: at least
# one shard probed, never more than min(shards, |items|) = 2.
"$TCF" client --port="$PORT" --explain="0.01;s1,s2" | awk '
  $1 == "shards_probed" { probed = $2 + 0; seen = 1 }
  END {
    if (!seen) { print "FAIL: EXPLAIN lacks shards_probed"; exit 1 }
    if (probed < 1 || probed > 2) {
      print "FAIL: shards_probed out of range: " probed; exit 1
    }
    print "OK: EXPLAIN reports shards_probed=" probed
  }'

# RELOAD rolls shard by shard; afterwards every shard must carry the
# new snapshot and queries must keep answering.
"$TCF" client --port="$PORT" --reload="$TMP/smoke2.idx" \
       --query="0.01;s1,s2"
"$TCF" client --port="$PORT" --stats | awk '
  $1 == "shard_reload_ms" && $2 + 0 > 0 { found = 1 }
  END {
    if (!found) { print "FAIL: shard_reload_ms is zero after RELOAD";
                  exit 1 }
    print "OK: rolling reload touched the shards (shard_reload_ms > 0)"
  }'

# The metrics registry must observe sharded traffic too.
Q1="$("$TCF" client --port="$PORT" --metrics \
      | awk '$1 == "tcf_queries_total" { print $2 }')"
[ -n "$Q1" ] || { echo "FAIL: sharded METRICS lacks tcf_queries_total";
                  exit 1; }
"$TCF" client --port="$PORT" --query="0.01;s3,s4"
Q2="$("$TCF" client --port="$PORT" --metrics \
      | awk '$1 == "tcf_queries_total" { print $2 }')"
if [ "${Q2%.*}" -le "${Q1%.*}" ]; then
  echo "FAIL: sharded tcf_queries_total did not advance ($Q1 -> $Q2)"
  exit 1
fi
# One backend at every shard count: the same METRICS families as the
# unsharded server.
metric_families "$PORT" > "$TMP/families_sharded.txt"
diff "$TMP/families_unsharded.txt" "$TMP/families_sharded.txt" || {
  echo "FAIL: --shards=2 METRICS families differ from the unsharded ones"
  exit 1
}
echo "OK: --shards=2 exports the unsharded METRICS families" \
     "($(wc -l < "$TMP/families_sharded.txt") of them)"

kill -TERM "$SERVER_PID" || { echo "FAIL: sharded server died early";
                              cat "$TMP/server2.log"; exit 1; }
wait "$SERVER_PID" || { echo "FAIL: sharded server exited non-zero";
                        exit 1; }
SERVER_PID=""
grep -q "shutting down" "$TMP/server2.log" || {
  echo "FAIL: sharded server log lacks the shutdown banner"; exit 1; }
echo "OK: sharded network smoke (--shards=2 / STATS / EXPLAIN / RELOAD)"

echo "== tcfi zero-copy snapshot smoke =="
# The index format end-to-end through the CLI: write (+ shard slices),
# query parity with an in-process build, RELOAD-to-mmap on a live
# server, sliced sharded serving, and loader rejection of torn/corrupt
# files — clean errors, never crashes. tests/tcfi_corrupt_test.cc owns
# the exhaustive mutation property suite; this is the CLI-visible
# slice of the same guarantees.
"$TCF" index --in="$TMP/smoke.net" --out="$TMP/smoke.tcfi" --threads=2 \
       --slices=2

# Query parity, mapped vs. built in process (no --index; timing lines
# filtered; the truss lines must match byte-for-byte and must be
# non-empty).
"$TCF" query --in="$TMP/smoke.net" --threads=2 \
       --items=s1,s2 --alpha=0 | grep '^  ' > "$TMP/q_built.out"
"$TCF" query --in="$TMP/smoke.net" --index="$TMP/smoke.tcfi" \
       --items=s1,s2 --alpha=0 | grep '^  ' > "$TMP/q_tcfi.out"
[ -s "$TMP/q_built.out" ] || { echo "FAIL: parity query returned nothing";
                               exit 1; }
diff "$TMP/q_built.out" "$TMP/q_tcfi.out" || {
  echo "FAIL: mapped .tcfi answers diverge from an in-process build"
  exit 1; }
echo "OK: tcf query over a mapped .tcfi matches an in-process build"

# TCFI is the only index format: asking for another one is refused.
if "$TCF" index --in="$TMP/smoke.net" --out="$TMP/refused.idx" \
          --format=tcft 2>/dev/null; then
  echo "FAIL: tcf index --format=tcft did not exit non-zero"; exit 1
fi
[ ! -e "$TMP/refused.idx" ] || {
  echo "FAIL: a refused --format still wrote an index"; exit 1; }
echo "OK: tcf index --format=tcft is refused"

# Torn write: a truncated file must be rejected with a clean error.
head -c 100 "$TMP/smoke.tcfi" > "$TMP/torn.tcfi"
if "$TCF" query --in="$TMP/smoke.net" --index="$TMP/torn.tcfi" \
          --items=s1 --alpha=0 2>/dev/null; then
  echo "FAIL: truncated .tcfi was not rejected"; exit 1
fi
# Bit rot: one flipped byte in the node arena must trip the section
# checksum at map time.
python3 - "$TMP/smoke.tcfi" "$TMP/flipped.tcfi" <<'PY'
import sys
data = bytearray(open(sys.argv[1], "rb").read())
data[300] ^= 0xFF
open(sys.argv[2], "wb").write(bytes(data))
PY
if "$TCF" query --in="$TMP/smoke.net" --index="$TMP/flipped.tcfi" \
          --items=s1 --alpha=0 2>/dev/null; then
  echo "FAIL: corrupt .tcfi passed checksum validation"; exit 1
fi
echo "OK: torn and bit-flipped .tcfi files are rejected cleanly"

# RELOAD-to-mmap on a live server: roll the .tcfi in over the wire;
# answers must match the index it replaces, a RELOAD of a torn file
# must fail the client and leave the server serving.
"$TCF" serve --in="$TMP/smoke.net" --index="$TMP/smoke.idx" --listen=0 \
       --threads=2 --compose-min-us=0 > "$TMP/server3.log" 2>&1 &
SERVER_PID=$!
PORT=""
for _ in $(seq 100); do
  PORT="$(sed -n 's/.*listening on [^:]*:\([0-9][0-9]*\).*/\1/p' \
          "$TMP/server3.log")"
  [ -n "$PORT" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { echo "FAIL: tcfi server died";
                                         cat "$TMP/server3.log"; exit 1; }
  sleep 0.1
done
[ -n "$PORT" ] || { echo "FAIL: tcfi server never reported its port";
                    exit 1; }
"$TCF" client --port="$PORT" --query="0;s1,s2" > "$TMP/r_before.out"
"$TCF" client --port="$PORT" --reload="$TMP/smoke.tcfi"
"$TCF" client --port="$PORT" --query="0;s1,s2" > "$TMP/r_tcfi.out"
diff "$TMP/r_before.out" "$TMP/r_tcfi.out" || {
  echo "FAIL: answers changed after RELOAD to the mapped .tcfi"; exit 1; }
if "$TCF" client --port="$PORT" --reload="$TMP/torn.tcfi" 2>/dev/null; then
  echo "FAIL: RELOAD of a torn .tcfi did not fail the client"; exit 1
fi
"$TCF" client --port="$PORT" --ping --query="0;s1,s2" > /dev/null \
  || { echo "FAIL: server unhealthy after rejected RELOAD"; exit 1; }
kill -TERM "$SERVER_PID" || { echo "FAIL: tcfi server died early";
                              cat "$TMP/server3.log"; exit 1; }
wait "$SERVER_PID" || { echo "FAIL: tcfi server exited non-zero"; exit 1; }
SERVER_PID=""
echo "OK: RELOAD swapped in the mapped snapshot; torn RELOAD rejected"

# Sliced sharded serving: --shards=2 over the slice files written by
# `index --slices=2` must map per-shard slices zero-copy and answer
# like the unsharded mapped index.
"$TCF" serve --in="$TMP/smoke.net" --index="$TMP/smoke.tcfi" --listen=0 \
       --threads=2 --shards=2 --compose-min-us=0 \
       > "$TMP/server4.log" 2>&1 &
SERVER_PID=$!
PORT=""
for _ in $(seq 100); do
  PORT="$(sed -n 's/.*listening on [^:]*:\([0-9][0-9]*\).*/\1/p' \
          "$TMP/server4.log")"
  [ -n "$PORT" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { echo "FAIL: sliced server died";
                                         cat "$TMP/server4.log"; exit 1; }
  sleep 0.1
done
[ -n "$PORT" ] || { echo "FAIL: sliced server never reported its port";
                    exit 1; }
grep -q "shard slices" "$TMP/server4.log" || {
  echo "FAIL: sliced server did not map the shard slice files"
  cat "$TMP/server4.log"; exit 1; }
"$TCF" client --port="$PORT" --query="0;s1,s2" > "$TMP/r_sliced.out"
diff "$TMP/r_tcfi.out" "$TMP/r_sliced.out" || {
  echo "FAIL: sliced shards answer differently from the mapped index"
  exit 1; }
# Updates on the sliced path: the streaming-update smoke's mutation,
# answered like its from-scratch rebuild oracle.
"$TCF" client --port="$PORT" --update-tx="0:s1,s2" --update-edge="0-1"
for q in "0;s1,s2" "0.01;s1" "0.02;s2,s3"; do
  "$TCF" client --port="$PORT" --query="$q" >> "$TMP/sliced_live.out"
done
diff "$TMP/sliced_live.out" "$TMP/oracle.out" || {
  echo "FAIL: sliced post-update answers diverge from the rebuild oracle"
  exit 1; }
kill -TERM "$SERVER_PID" || { echo "FAIL: sliced server died early";
                              cat "$TMP/server4.log"; exit 1; }
wait "$SERVER_PID" || { echo "FAIL: sliced server exited non-zero";
                        exit 1; }
SERVER_PID=""
echo "OK: --shards=2 served zero-copy from the checked slice files" \
     "and applied an UPDATE like the rebuild oracle"

echo "== overload smoke =="
# A server that must refuse: the walk.deadline failpoint expires every
# walk's budget deterministically (no flaky timing on a tiny network),
# and a 1 qps / burst-2 token bucket turns a pipelined flood into rate
# limiting. Every refusal must still be a clean, parseable ERR line.
TCF_FAILPOINTS=1 TCF_FAILPOINTS_SPEC="walk.deadline=always" \
  "$TCF" serve --in="$TMP/smoke.net" --index="$TMP/smoke.idx" --listen=0 \
         --threads=2 --compose-min-us=0 \
         --default-deadline-ms=50 --rate-limit-qps=1 --rate-limit-burst=2 \
         > "$TMP/server5.log" 2>&1 &
SERVER_PID=$!
PORT=""
for _ in $(seq 100); do
  PORT="$(sed -n 's/.*listening on [^:]*:\([0-9][0-9]*\).*/\1/p' \
          "$TMP/server5.log")"
  [ -n "$PORT" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { echo "FAIL: overload server died";
                                         cat "$TMP/server5.log"; exit 1; }
  sleep 0.1
done
[ -n "$PORT" ] || { echo "FAIL: overload server never reported its port";
                    exit 1; }

# A query whose walk budget is injected-expired must fail the client
# (non-zero exit) while the server stays up.
if "$TCF" client --port="$PORT" --query="0.01;s1,s2" 2>/dev/null; then
  echo "FAIL: deadline-expired query did not fail the client"; exit 1
fi
"$TCF" client --port="$PORT" --ping

# Pipelined flood over one raw connection: 8 query lines, 8 responses.
# Expired results are never cached, so every response is a single ERR
# line — the first within-burst requests DeadlineExceeded, the rest
# RateLimited with a retry hint. No torn frames, no hangs.
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
for i in $(seq 8); do printf '0.01;s%d,s%d\n' "$i" "$((i + 1))" >&3; done
DEADLINED=0
LIMITED=0
for _ in $(seq 8); do
  IFS= read -r line <&3 || { echo "FAIL: flood response stream ended early";
                             exit 1; }
  case "$line" in
    "TCF1 ERR DeadlineExceeded "*) DEADLINED=$((DEADLINED + 1)) ;;
    "TCF1 ERR RateLimited "*"retry in"*) LIMITED=$((LIMITED + 1)) ;;
    *) echo "FAIL: unclean overload response: $line"; exit 1 ;;
  esac
done
exec 3<&- 3>&-
[ "$DEADLINED" -ge 1 ] || { echo "FAIL: no DeadlineExceeded in the flood";
                            exit 1; }
[ "$LIMITED" -ge 1 ] || { echo "FAIL: no RateLimited in the flood"; exit 1; }
echo "OK: flood answered cleanly ($DEADLINED deadline-expired," \
     "$LIMITED rate-limited)"

# STATS stays exempt from the rate limit and must show both counters.
"$TCF" client --port="$PORT" --stats | awk '
  $1 == "deadline_exceeded" && $2 + 0 > 0 { d = 1 }
  $1 == "rate_limited" && $2 + 0 > 0 { r = 1 }
  $1 == "clients_tracked" && $2 + 0 > 0 { c = 1 }
  END {
    if (!d) { print "FAIL: STATS deadline_exceeded never advanced"; exit 1 }
    if (!r) { print "FAIL: STATS rate_limited never advanced"; exit 1 }
    if (!c) { print "FAIL: STATS clients_tracked is zero"; exit 1 }
    print "OK: STATS reports deadline_exceeded, rate_limited," \
          "clients_tracked > 0"
  }'

kill -TERM "$SERVER_PID" || { echo "FAIL: overload server died early";
                              cat "$TMP/server5.log"; exit 1; }
wait "$SERVER_PID" || { echo "FAIL: overload server exited non-zero";
                        exit 1; }
SERVER_PID=""
echo "OK: overload smoke (deadlines / rate limit / clean refusals)"

echo "== all checks passed =="
