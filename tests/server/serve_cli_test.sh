#!/usr/bin/env bash
# End-to-end CLI test for `nppc serve` / `nppc --client`: start a real
# server process, drive it with client-mode nppc invocations (ping, two
# identical evals, stats, shutdown), and check the protocol responses
# and a clean server exit.
set -euo pipefail

NPPC="$1"
WORK="$(mktemp -d /tmp/npp_serve_cli_XXXXXX)"
SOCK="$WORK/npp.sock"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

export NPP_EVAL_CACHE_DIR="$WORK/cache"

# Numeric flags parse strictly: garbage, trailing junk and out-of-range
# values are usage errors (exit 2), never 0 or a parsed prefix.
expect_usage() {
    local rc=0
    "$NPPC" "$@" > /dev/null 2>&1 || rc=$?
    [ "$rc" -eq 2 ] || { echo "FAIL: nppc $* exited $rc, want 2"; exit 1; }
}
expect_usage sumrows --devices=abc
expect_usage sumrows --devices=33
expect_usage sumrows --devices=
expect_usage sumrows --size=rows=12x
expect_usage sumrows --size=rows=
expect_usage serve "--socket=$SOCK" --hold-eval-ms=5ms
expect_usage train-predictor "--dir=$WORK/none" --lambda=1e-3x
# Client mode cannot forward --predict, --stats or --trace: each is a
# usage error naming the flag, rejected before any connection is tried.
for flag in --predict "--stats=$WORK/s.json" "--trace=$WORK/t.json"; do
    rc=0
    "$NPPC" sumrows "--client=$SOCK" "$flag" > /dev/null \
        2> "$WORK/flag.err" || rc=$?
    [ "$rc" -eq 2 ] || { echo "FAIL: client mode with $flag exited $rc"
        exit 1; }
    grep -q -- "${flag%%=*} is not supported in client mode" \
        "$WORK/flag.err" || {
        echo "FAIL: client-mode rejection of $flag does not name it"
        cat "$WORK/flag.err"; exit 1; }
done
[ ! -e "$WORK/s.json" ] && [ ! -e "$WORK/t.json" ] || {
    echo "FAIL: a rejected client-mode flag wrote its file"; exit 1; }
"$NPPC" sumrows --size=rows=64 --size=cols=64 --devices=32 --mapping \
    > /dev/null || { echo "FAIL: --devices=32 must be accepted"; exit 1; }

"$NPPC" serve "--socket=$SOCK" > "$WORK/serve.log" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && break
    sleep 0.1
done
[ -S "$SOCK" ] || { echo "FAIL: server socket never appeared"; exit 1; }

"$NPPC" ping "--client=$SOCK" | grep -q '"type":"pong"' || {
    echo "FAIL: ping did not pong"; exit 1; }

EVAL_ARGS=(sumrows "--client=$SOCK" --size=rows=128 --size=cols=128)
"$NPPC" "${EVAL_ARGS[@]}" > "$WORK/eval1.json"
grep -q '"ok":true' "$WORK/eval1.json"
grep -q '"provenance":"simulated"' "$WORK/eval1.json" || {
    echo "FAIL: first eval should simulate"; cat "$WORK/eval1.json"; exit 1; }
grep -q '"mapping":"' "$WORK/eval1.json"

"$NPPC" "${EVAL_ARGS[@]}" > "$WORK/eval2.json"
grep -q '"provenance":"memory"' "$WORK/eval2.json" || {
    echo "FAIL: second eval should hit the memory tier"
    cat "$WORK/eval2.json"; exit 1; }

"$NPPC" stats "--client=$SOCK" > "$WORK/stats.json"
grep -q '"evaluations":2' "$WORK/stats.json" || {
    echo "FAIL: stats should report 2 evaluations"
    cat "$WORK/stats.json"; exit 1; }
grep -q '"eval_cache":' "$WORK/stats.json"

# Unknown program must produce an error response, exit nonzero, and
# leave the server standing.
if "$NPPC" not_a_program "--client=$SOCK" > "$WORK/err.json" 2>&1; then
    echo "FAIL: unknown program should exit nonzero"; exit 1
fi
grep -q '"ok":false' "$WORK/err.json"
kill -0 "$SERVER_PID" || { echo "FAIL: server died on a bad request"; exit 1; }

"$NPPC" shutdown "--client=$SOCK" | grep -q '"type":"shutdown"'
for _ in $(seq 1 100); do
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "FAIL: server still running after shutdown request"; exit 1
fi
SERVER_PID=""

grep -q "served " "$WORK/serve.log" || {
    echo "FAIL: server exit summary missing"; cat "$WORK/serve.log"; exit 1; }
echo "serve CLI round trip OK"
