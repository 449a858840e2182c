#!/bin/sh
# Daemon smoke test: start clusterd on a free port, POST the same
# /v1/schedule request twice, and assert the first is a cache miss, the
# second a hit, and both bodies byte-identical; then check the daemon
# drains cleanly on SIGTERM.
# Run from the repository root:  sh scripts/serve.sh
set -eu

LOG="$(mktemp)"
DIR="$(mktemp -d)"
BIN="${TMPDIR:-/tmp}/clusterd.smoke"

go build -o "$BIN" ./cmd/clusterd
"$BIN" -addr 127.0.0.1:0 > "$LOG" 2>&1 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$DIR" "$LOG"' EXIT

URL=""
for _ in $(seq 1 50); do
    URL="$(sed -n 's/^clusterd: listening on \(http:.*\)$/\1/p' "$LOG")"
    [ -n "$URL" ] && break
    sleep 0.1
done
[ -n "$URL" ] || { echo "serve: clusterd did not start"; cat "$LOG"; exit 1; }
echo "serve: daemon at $URL"

# The docs/SERVICE.md example request, twice: the first must be
# scheduled (X-Cache: miss), the second served from the cache
# (X-Cache: hit) with exactly the bytes the first returned.
REQ='{"machine": "gp:2:2:1", "source": "loop dot { s = s + a[i]*b[i] }"}'
for pass in 1 2; do
    curl -sS -f -D "$DIR/h$pass" -o "$DIR/b$pass" -d "$REQ" "$URL/v1/schedule" \
        || { echo "serve: FAIL: request $pass failed"; exit 1; }
done
cat "$DIR/b1"; echo
xcache() { tr -d '\r' < "$1" | sed -n 's/^[Xx]-[Cc]ache: //p'; }
[ "$(xcache "$DIR/h1")" = miss ] || { echo "serve: FAIL: first request was not a cache miss"; cat "$DIR/h1"; exit 1; }
[ "$(xcache "$DIR/h2")" = hit ]  || { echo "serve: FAIL: repeat request missed the cache"; cat "$DIR/h2"; exit 1; }
cmp -s "$DIR/b1" "$DIR/b2"      || { echo "serve: FAIL: cached body differs from the scheduled one"; exit 1; }

# Graceful drain: SIGTERM must make the daemon exit by itself.
kill -TERM "$PID"
for _ in $(seq 1 50); do
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$PID" 2>/dev/null; then
    echo "serve: FAIL: daemon still running after SIGTERM"
    exit 1
fi
grep -q "drained" "$LOG" || { echo "serve: FAIL: no drain message"; cat "$LOG"; exit 1; }

echo "serve: OK"
