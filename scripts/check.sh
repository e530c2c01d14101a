#!/usr/bin/env bash
# Tier-1 verify + smoke: configure, build, ctest, and run the quickstart
# example end-to-end — twice, diffing the runs as a determinism gate.
# This is what every CI matrix cell runs; run it locally before pushing.
#
# Env knobs (all optional):
#   BUILD_DIR                    build tree             (default: build)
#   BUILD_TYPE                   CMake build type       (default: Release)
#   IMDPP_SANITIZE               -fsanitize list, e.g. thread / address,undefined
#   CMAKE_CXX_COMPILER_LAUNCHER  e.g. ccache (forwarded to CMake)
#   CC / CXX                     compiler selection (read natively by CMake)
#   CXXFLAGS                     extra compile flags, e.g. -D_GLIBCXX_ASSERTIONS
#                                (read natively by CMake on first configure)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
BUILD_TYPE="${BUILD_TYPE:-Release}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

CMAKE_ARGS=(-DCMAKE_BUILD_TYPE="$BUILD_TYPE")
if [[ -n "${IMDPP_SANITIZE:-}" ]]; then
  CMAKE_ARGS+=(-DIMDPP_SANITIZE="$IMDPP_SANITIZE")
fi
if [[ -n "${CMAKE_CXX_COMPILER_LAUNCHER:-}" ]]; then
  CMAKE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER="$CMAKE_CXX_COMPILER_LAUNCHER")
fi

echo "== configure ($BUILD_TYPE${IMDPP_SANITIZE:+, sanitize=$IMDPP_SANITIZE}) =="
cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"

echo "== build =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== ctest =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== imdpp-lint (determinism/locking invariants, tools/lint) =="
"$BUILD_DIR/imdpp-lint" src/ tools/

echo "== smoke: examples/quickstart (run twice, diff = determinism gate) =="
# Wall-clock lines differ run to run by construction; everything else
# (seeds, σ̂, schedules) must be byte-identical.
strip_timing() { sed -E 's/ in [0-9.]+s$//'; }
"$BUILD_DIR/quickstart" | strip_timing > "$BUILD_DIR/quickstart.run1.txt"
"$BUILD_DIR/quickstart" | strip_timing > "$BUILD_DIR/quickstart.run2.txt"
diff "$BUILD_DIR/quickstart.run1.txt" "$BUILD_DIR/quickstart.run2.txt"
cat "$BUILD_DIR/quickstart.run1.txt"

echo "== smoke: imdpp CLI quickstart (run twice, diff = determinism gate) =="
# The CLI emits no wall-clock fields by default, so identical invocations
# must produce byte-identical JSON.
"$BUILD_DIR/imdpp" plan --dataset yelp-like --planner dysim --budget 300 \
  --out "$BUILD_DIR/cli_plan.run1.json"
"$BUILD_DIR/imdpp" plan --dataset yelp-like --planner dysim --budget 300 \
  --out "$BUILD_DIR/cli_plan.run2.json"
diff "$BUILD_DIR/cli_plan.run1.json" "$BUILD_DIR/cli_plan.run2.json"
echo "imdpp plan output is byte-identical across runs"

echo "== smoke: imdpp sweep on configs/sweep_ci.json (twice + diff) =="
"$BUILD_DIR/imdpp" sweep --config configs/sweep_ci.json --quiet \
  --out "$BUILD_DIR/cli_sweep.run1.json" --csv "$BUILD_DIR/cli_sweep.csv"
"$BUILD_DIR/imdpp" sweep --config configs/sweep_ci.json --quiet \
  --out "$BUILD_DIR/cli_sweep.run2.json"
diff "$BUILD_DIR/cli_sweep.run1.json" "$BUILD_DIR/cli_sweep.run2.json"
echo "imdpp sweep output is byte-identical across runs"

echo "== smoke: imdpp datasets --prep (twice + diff) =="
# Prep-artifact stats carry no wall-clock fields by default, so the
# per-dataset structure report must be byte-identical across runs.
"$BUILD_DIR/imdpp" datasets --prep --dataset fig1-toy --budget 20 \
  --promotions 2 --selection-samples 4 --eval-samples 8 \
  --out "$BUILD_DIR/cli_prep.run1.json"
"$BUILD_DIR/imdpp" datasets --prep --dataset fig1-toy --budget 20 \
  --promotions 2 --selection-samples 4 --eval-samples 8 \
  --out "$BUILD_DIR/cli_prep.run2.json"
diff "$BUILD_DIR/cli_prep.run1.json" "$BUILD_DIR/cli_prep.run2.json"
echo "imdpp datasets --prep output is byte-identical across runs"

echo "== smoke: imdpp backends + a --backend ris plan (twice + diff) =="
# The backend listing is a pure registry dump (byte-stable), and a plan
# under the sketch backend must be as deterministic as one under mc.
"$BUILD_DIR/imdpp" backends > "$BUILD_DIR/cli_backends.run1.txt"
"$BUILD_DIR/imdpp" backends > "$BUILD_DIR/cli_backends.run2.txt"
diff "$BUILD_DIR/cli_backends.run1.txt" "$BUILD_DIR/cli_backends.run2.txt"
cat "$BUILD_DIR/cli_backends.run1.txt"
"$BUILD_DIR/imdpp" plan --dataset fig1-toy --planner dysim --budget 20 \
  --backend ris --selection-samples 4 --eval-samples 8 \
  --out "$BUILD_DIR/cli_plan_ris.run1.json"
"$BUILD_DIR/imdpp" plan --dataset fig1-toy --planner dysim --budget 20 \
  --backend ris --selection-samples 4 --eval-samples 8 \
  --out "$BUILD_DIR/cli_plan_ris.run2.json"
diff "$BUILD_DIR/cli_plan_ris.run1.json" "$BUILD_DIR/cli_plan_ris.run2.json"
echo "imdpp backends / --backend ris output is byte-identical across runs"

echo "== smoke: imdpp plan --adaptive (twice + diff) =="
# Variance-adaptive racing (eval.adaptive) must be exactly as
# deterministic as the fixed path: block-boundary decisions are a pure
# function of the candidate set, so two racing runs are byte-identical.
"$BUILD_DIR/imdpp" plan --dataset yelp-like --planner dysim --budget 300 \
  --adaptive --adaptive-budget 8 \
  --out "$BUILD_DIR/cli_plan_adaptive.run1.json"
"$BUILD_DIR/imdpp" plan --dataset yelp-like --planner dysim --budget 300 \
  --adaptive --adaptive-budget 8 \
  --out "$BUILD_DIR/cli_plan_adaptive.run2.json"
diff "$BUILD_DIR/cli_plan_adaptive.run1.json" \
  "$BUILD_DIR/cli_plan_adaptive.run2.json"
echo "imdpp plan --adaptive output is byte-identical across runs"

echo "== OK =="
