#!/bin/sh
# Fleet benchmark: boots three local clusterd workers plus a clusterlb
# in front of them, replays the synthetic suite through the balancer
# (one cold pass, then -benchreps cached passes), and writes
# BENCH_fleet.json: p50/p99 latency for each pass plus the hedge win
# rate and failover counters. When a committed BENCH_fleet.json exists
# the fresh cached p50 is diffed against it (10% tolerance) and a
# regression exits non-zero, leaving the committed file untouched.
#
# The pipeline, service and compile paths are measured by perfbench/
# (sh perfbench/run.sh) and by the Go benchmarks (go test -bench).
# Run from the repository root:  sh scripts/bench.sh [count]
# (-fleet [count] is accepted as an alias.)
set -eu

if [ "${1:-}" = "-fleet" ]; then shift; fi
COUNT="${1:-400}"
FLEET_OUT="BENCH_fleet.json"
BIN="${TMPDIR:-/tmp}/clustersched.bench"
mkdir -p "$BIN"
go build -o "$BIN/clusterd" ./cmd/clusterd
go build -o "$BIN/clusterlb" ./cmd/clusterlb
WLOG1="$(mktemp)"; WLOG2="$(mktemp)"; WLOG3="$(mktemp)"; LBLOG="$(mktemp)"
"$BIN/clusterd" -addr 127.0.0.1:0 > "$WLOG1" 2>&1 & W1=$!
"$BIN/clusterd" -addr 127.0.0.1:0 > "$WLOG2" 2>&1 & W2=$!
"$BIN/clusterd" -addr 127.0.0.1:0 > "$WLOG3" 2>&1 & W3=$!
trap 'kill $W1 $W2 $W3 ${LB:-} 2>/dev/null || true' EXIT
wait_url() { # logfile prefix -> prints URL
    for _ in $(seq 1 50); do
        U="$(sed -n "s/^$2: listening on \(http:.*\)$/\1/p" "$1")"
        [ -n "$U" ] && { echo "$U"; return 0; }
        sleep 0.1
    done
    return 1
}
U1="$(wait_url "$WLOG1" clusterd)" || { echo "bench: worker 1 did not start"; cat "$WLOG1"; exit 1; }
U2="$(wait_url "$WLOG2" clusterd)" || { echo "bench: worker 2 did not start"; cat "$WLOG2"; exit 1; }
U3="$(wait_url "$WLOG3" clusterd)" || { echo "bench: worker 3 did not start"; cat "$WLOG3"; exit 1; }
"$BIN/clusterlb" -addr 127.0.0.1:0 -workers "$U1,$U2,$U3" > "$LBLOG" 2>&1 & LB=$!
LBURL="$(wait_url "$LBLOG" clusterlb)" || { echo "bench: clusterlb did not start"; cat "$LBLOG"; exit 1; }
# Write to a temp file first: the gate inside clusterbench diffs
# against the committed $FLEET_OUT, which a direct redirect would
# truncate before the run. On a gate failure the committed file
# survives untouched.
go run ./cmd/clusterbench -fleet "$LBURL" -count "$COUNT" -benchreps 10 > "$FLEET_OUT.tmp"
mv "$FLEET_OUT.tmp" "$FLEET_OUT"
kill $W1 $W2 $W3 $LB 2>/dev/null || true
echo "bench: wrote $FLEET_OUT"
