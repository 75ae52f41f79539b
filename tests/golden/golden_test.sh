#!/usr/bin/env bash
# Golden gate for the decision surfaces: the `--explain` text of every
# demo program (plain, --devices=4, --predict without a model, and both
# together), the consolidation-strategy report, the `--stats` JSON of a
# four-device run, and `nppc serve` eval responses with "explain":true
# at devices 1 and 4. Every output must match tests/golden/expected/
# byte for byte.
#
#   golden_test.sh NPPC            # compare against the goldens
#   golden_test.sh NPPC --update   # rewrite the goldens from NPPC
#
# Sizes are small so the whole gate runs in a few seconds.
set -euo pipefail

NPPC="$1"
MODE="${2:-check}"
HERE="$(cd "$(dirname "$0")" && pwd)"
EXPECTED="$HERE/expected"
WORK="$(mktemp -d /tmp/npp_golden_XXXXXX)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

# Every knob that could steer a decision or a counter is cleared: the
# goldens describe the default configuration.
unset NPP_EVAL_CACHE NPP_EVAL_CACHE_DIR NPP_EVAL_CACHE_DISK \
      NPP_EVAL_CACHE_MB NPP_PREDICT NPP_PREDICT_DIR NPP_PREDICT_MODEL \
      NPP_PREDICT_TOPK NPP_TRACE_MAX_SPANS

PROGRAMS=(sumrows sumcols weightedrows weightedcols pagerank mandelbrot spmv)

sizes() {
    case "$1" in
    sumrows | sumcols | weightedrows | weightedcols)
        echo "--size=rows=256 --size=cols=256" ;;
    pagerank) echo "--size=nodes=1024" ;;
    mandelbrot) echo "--size=height=32 --size=width=128" ;;
    spmv) echo "--size=rows=512 --size=avgdeg=8" ;;
    esac
}

OUT="$WORK/out"
mkdir -p "$OUT"

for p in "${PROGRAMS[@]}"; do
    # shellcheck disable=SC2046
    set -- $(sizes "$p")
    "$NPPC" "$p" "$@" --explain > "$OUT/$p.explain.txt"
    "$NPPC" "$p" "$@" --explain --devices=4 > "$OUT/$p.explain_dev4.txt"
    "$NPPC" "$p" "$@" --explain --predict > "$OUT/$p.explain_predict.txt"
    "$NPPC" "$p" "$@" --explain --devices=4 --predict \
        > "$OUT/$p.explain_dev4_predict.txt"
    "$NPPC" "$p" "$@" --devices=4 "--stats=$OUT/$p.stats_dev4.json" \
        > /dev/null
done
# shellcheck disable=SC2046
"$NPPC" spmv $(sizes spmv) --explain --strategy=consolidate \
    > "$OUT/spmv.explain_consolidate.txt"

# Serve: a fresh server over a private disk tier, one request at a time
# so provenance ("simulated" / "memory") is deterministic.
export NPP_EVAL_CACHE_DIR="$WORK/cache"
SOCK="$WORK/npp.sock"
"$NPPC" serve "--socket=$SOCK" > "$WORK/serve.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && break
    sleep 0.1
done
[ -S "$SOCK" ] || { echo "FAIL: server socket never appeared"; exit 1; }
for p in "${PROGRAMS[@]}"; do
    for d in 1 4; do
        # shellcheck disable=SC2046
        "$NPPC" "$p" "--client=$SOCK" $(sizes "$p") --explain \
            "--devices=$d" > "$OUT/$p.serve_dev$d.json"
    done
done
"$NPPC" shutdown "--client=$SOCK" > /dev/null
wait "$SERVER_PID"
SERVER_PID=""

if [ "$MODE" = "--update" ]; then
    rm -rf "$EXPECTED"
    cp -r "$OUT" "$EXPECTED"
    echo "goldens written to $EXPECTED"
    exit 0
fi

if ! diff -r "$EXPECTED" "$OUT" > "$WORK/diff.txt"; then
    echo "FAIL: outputs differ from the goldens"
    head -n 200 "$WORK/diff.txt"
    exit 1
fi
echo "golden gate OK ($(ls "$OUT" | wc -l) outputs byte-identical)"
