#!/usr/bin/env bash
# Records the repo's perf trajectory: builds the requested Release bench,
# runs it, and writes the JSON document the repo tracks.
#
#   tools/bench_to_json.sh                          # prepare trajectory
#   BENCH=load tools/bench_to_json.sh               # cold-start trajectory
#   tools/bench_to_json.sh --scale 2.0 --repeat 5   # extra args pass through
#
# Environment:
#   BENCH      which trajectory: prepare (default) -> bench_prepare_scale
#              -> BENCH_prepare.json; load -> bench_store_load ->
#              BENCH_load.json. Serving is measured by perfbench/.
#   BUILD_DIR  cmake build tree for the bench (default: build-bench)
#   OUT        output JSON path (default: BENCH_<name>.json at repo root)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build-bench}"
BENCH="${BENCH:-prepare}"

case "$BENCH" in
  prepare) TARGET=bench_prepare_scale ;;
  load)    TARGET=bench_store_load ;;
  *) echo "error: BENCH must be 'prepare' or 'load', got '$BENCH'" >&2
     exit 2 ;;
esac
OUT="${OUT:-$ROOT/BENCH_$BENCH.json}"

# The script owns --out (set OUT= instead): a second --out in the
# pass-through args would make the bench write elsewhere while the shape
# check below reads $OUT.
for arg in "$@"; do
  if [[ "$arg" == "--out" || "$arg" == --out=* ]]; then
    echo "error: pass the output path via OUT=..., not --out" >&2
    exit 2
  fi
done

cmake -B "$BUILD_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=Release \
  -DEGP_BUILD_BENCH=ON \
  -DEGP_BUILD_TESTS=OFF \
  -DEGP_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$BUILD_DIR" -j --target "$TARGET" >/dev/null

"$BUILD_DIR/bench/$TARGET" --out "$OUT" "$@"

# Shape check: fail loudly rather than commit a malformed trajectory.
python3 "$ROOT/tools/validate_bench_json.py" "$OUT"
