#!/usr/bin/env bash
# Bit-identity check against another revision. Builds <rev> (unpacked with
# `git archive` into a scratch directory) and the working tree, runs the
# same commands on both and diffs the outputs byte for byte:
#   * `imdpp plan` JSON for every registered planner, fixed and
#     --adaptive, on amazon-like@0.3 (B=150, T=4, 2 threads);
#   * `imdpp plan` JSON for every registered planner but `opt` (exhaustive,
#     it would take most of the script's time), fixed, on yelp-like@0.3
#     (B=300, T=10, 2 threads): placement and refinement over ten rounds;
#   * the same planners, fixed, on amazon-like@0.3 (B=150, T=4, 2 threads)
#     under the linear-threshold model (a --config setting campaign.model
#     to "lt"), the diffusion model no other run exercises;
#   * `imdpp plan` JSON for every planner but `adaptive` (it replans on
#     "mc" only) with --backend ris on amazon-like@0.3 (B=150, T=4,
#     2 threads), plus one `imdpp compare --backend ris` over several
#     planners, whose session builds one sketch set and reuses it;
#   * `imdpp plan` JSON for every planner but `opt` on a SyntheticSpec
#     file dataset (small-world, uniform importance, renamed KG types;
#     B=150, T=4, 2 threads), written to the scratch dir like the LT
#     config;
#   * `imdpp sweep` JSON of configs/sweep_ci.json, and of a sweep whose
#     dataset entries are objects (scale, seed, config, planners; one of
#     them the spec file at scale 0.5) and whose planner entries are
#     objects with a config;
#   * the --metrics-out files of the yelp-like@0.3 T=10 runs and of the
#     amazon-like@0.3 --adaptive runs, with the timing-valued keys dropped
#     (names ending in millis, micros or seconds, util::IsTimingMetric).
#     That puts the counters plan JSON omits under the byte check: the
#     kernel work (eval.attempts_*, eval.weight_*, eval.assoc_*), the
#     eval.sigma_hat histogram and the pool.* dispatch counts.
# A refactor or kernel change that claims bit-identity must leave every
# diff empty; a deliberate re-baseline shows up here and is named in its
# change description. A run that fails records its exit code and stderr
# in place of its output, so it shows up as a diff too. After the diffs,
# each differing file is summarized by the JSON keys that differ (dotted
# paths from the top level, array indices folded to []), so a re-baseline
# that only moves work counters reads as one at a glance.
#
# usage: scripts/bitdiff.sh <rev>
#   exit 0 = every output identical, 1 = some output differs (the diffs
#   and the per-file key summary are printed), 2 = usage error.
#
# Env knobs (all optional):
#   BUILD_DIR    build tree of the working copy  (default: build)
#   BITDIFF_DIR  scratch dir for <rev>'s source, both builds' outputs and
#                <rev>'s build (default: a fresh mktemp -d, removed on exit)
#   CMAKE_CXX_COMPILER_LAUNCHER  e.g. ccache (read natively by CMake)
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <rev>" >&2
  exit 2
fi
REV="$1"
BUILD_DIR="${BUILD_DIR:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"
if [[ -n "${BITDIFF_DIR:-}" ]]; then
  WORK="$BITDIFF_DIR"
  mkdir -p "$WORK"
else
  WORK="$(mktemp -d)"
  trap 'rm -rf "$WORK"' EXIT
fi

build() {  # <source dir> <build dir>
  cmake -B "$2" -S "$1" -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build "$2" -j "$JOBS" --target imdpp_cli > /dev/null
}

echo "== build $REV ==" >&2
rm -rf "$WORK/rev-src"
mkdir -p "$WORK/rev-src"
git archive "$REV" | tar -x -C "$WORK/rev-src"
build "$WORK/rev-src" "$WORK/rev-build"

echo "== build working tree ==" >&2
build . "$BUILD_DIR"

# The registry lists its names in the unknown-planner error (exit 1).
PLANNERS="$( ("$BUILD_DIR/imdpp" plan --dataset fig1-toy --planner '?' \
  2>&1 || true) | sed -n 's/^imdpp: .*registered: //p')"
if [[ -z "$PLANNERS" ]]; then
  echo "bitdiff: could not read the planner registry" >&2
  exit 2
fi

# The LT world's planner config, shared by both builds' runs.
LT_CONFIG="$WORK/lt_campaign.json"
echo '{"campaign": {"model": "lt"}}' > "$LT_CONFIG"

# A spec-file dataset (non-default topology, importance and KG type
# names), and a sweep whose dataset and planner entries are objects.
SPEC_FILE="$WORK/spec_world.json"
cat > "$SPEC_FILE" <<JSON
{"name": "bitdiff-world", "seed": 7, "num_users": 150, "num_items": 24,
 "num_features": 18, "num_brands": 5, "num_categories": 4,
 "topology": "small-world", "sw_neighbors": 3, "sw_rewire": 0.2,
 "importance": "uniform", "types": {"item": "GADGET", "feature": "SPEC"}}
JSON
SWEEP_OBJECTS="$WORK/sweep_objects.json"
cat > "$SWEEP_OBJECTS" <<JSON
{"name": "sweep-objects",
 "datasets": [
   {"name": "yelp-like", "scale": 0.2, "seed": 5,
    "config": {"eval_samples": 12},
    "planners": ["dysim", {"planner": "ps", "config": {"seed": 3}}]},
   {"name": "$SPEC_FILE", "scale": 0.5}],
 "planners": ["bgrd", {"planner": "dysim", "config": {"selection_samples": 4}}],
 "budgets": [100], "promotions": [3],
 "config": {"selection_samples": 6, "eval_samples": 16,
            "candidates": {"max_users": 16, "max_items": 6}}}
JSON

# Rewrites a --metrics-out file without its timing-valued keys (the
# util::IsTimingMetric suffixes), keeping the key order.
drop_timings() {  # <metrics file>
  [[ -f "$1" ]] || return 0
  python3 - "$1" <<'PY'
import json
import sys

path = sys.argv[1]
with open(path) as f:
    metrics = json.load(f)
kept = {k: v for k, v in metrics.items()
        if not k.endswith(("millis", "micros", "seconds"))}
with open(path, "w") as f:
    json.dump(kept, f, indent=2)
    f.write("\n")
PY
}

run_all() {  # <imdpp binary> <output dir>
  local bin="$1" out="$2" planner mode
  rm -rf "$out"
  mkdir -p "$out"
  for planner in $PLANNERS; do
    for mode in fixed adaptive; do
      local flags=()
      [[ "$mode" == adaptive ]] &&
        flags=(--adaptive --metrics-out "$out/metrics.$planner.adaptive.json")
      "$bin" plan --dataset amazon-like@0.3 --planner "$planner" \
        --budget 150 --promotions 4 --threads 2 "${flags[@]}" \
        > "$out/plan.$planner.$mode.json" 2>&1 \
        || echo "exit $?" >> "$out/plan.$planner.$mode.json"
    done
    drop_timings "$out/metrics.$planner.adaptive.json"
    if [[ "$planner" != adaptive ]]; then
      "$bin" plan --dataset amazon-like@0.3 --planner "$planner" \
        --budget 150 --promotions 4 --threads 2 --backend ris \
        > "$out/plan.$planner.ris.json" 2>&1 \
        || echo "exit $?" >> "$out/plan.$planner.ris.json"
    fi
    [[ "$planner" == opt ]] && continue
    "$bin" plan --dataset yelp-like@0.3 --planner "$planner" \
      --budget 300 --promotions 10 --threads 2 \
      --metrics-out "$out/metrics.$planner.yelp-t10.json" \
      > "$out/plan.$planner.yelp-t10.json" 2>&1 \
      || echo "exit $?" >> "$out/plan.$planner.yelp-t10.json"
    drop_timings "$out/metrics.$planner.yelp-t10.json"
    "$bin" plan --dataset amazon-like@0.3 --planner "$planner" \
      --budget 150 --promotions 4 --threads 2 --config "$LT_CONFIG" \
      > "$out/plan.$planner.lt.json" 2>&1 \
      || echo "exit $?" >> "$out/plan.$planner.lt.json"
    "$bin" plan --dataset "$SPEC_FILE" --planner "$planner" \
      --budget 150 --promotions 4 --threads 2 \
      > "$out/plan.$planner.spec.json" 2>&1 \
      || echo "exit $?" >> "$out/plan.$planner.spec.json"
  done
  "$bin" compare --dataset amazon-like@0.3 --planners dysim,bgrd,hag,ps,drhga \
    --budget 150 --promotions 4 --threads 2 --backend ris \
    > "$out/compare.ris.json" 2>&1 || echo "exit $?" >> "$out/compare.ris.json"
  "$bin" sweep --config configs/sweep_ci.json --quiet \
    > "$out/sweep_ci.json" 2>&1 || echo "exit $?" >> "$out/sweep_ci.json"
  "$bin" sweep --config "$SWEEP_OBJECTS" --quiet \
    > "$out/sweep_objects.json" 2>&1 \
    || echo "exit $?" >> "$out/sweep_objects.json"
}

echo "== run $REV ==" >&2
run_all "$WORK/rev-build/imdpp" "$WORK/out-rev"
echo "== run working tree ==" >&2
run_all "$BUILD_DIR/imdpp" "$WORK/out-tree"

# Prints, per file that differs between two output dirs, the JSON key
# paths whose values differ. Informational only: never fails the script.
differing_keys() {  # <rev output dir> <tree output dir>
  python3 - "$1" "$2" <<'PY' || true
import json
import os
import sys

def collect(a, b, path, out):
    if isinstance(a, dict) and isinstance(b, dict):
        for key in a.keys() | b.keys():
            sub = f"{path}.{key}" if path else key
            if key in a and key in b:
                collect(a[key], b[key], sub, out)
            else:
                out.add(sub)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            collect(x, y, path + "[]", out)
    elif a != b:
        out.add(path or "(whole document)")

rev_dir, tree_dir = sys.argv[1], sys.argv[2]
print("bitdiff: JSON keys that differ, per file:")
for name in sorted(set(os.listdir(rev_dir)) & set(os.listdir(tree_dir))):
    with open(os.path.join(rev_dir, name)) as f:
        rev = f.read()
    with open(os.path.join(tree_dir, name)) as f:
        tree = f.read()
    if rev == tree:
        continue
    try:
        keys = set()
        collect(json.loads(rev), json.loads(tree), "", keys)
        summary = ", ".join(sorted(keys)) or "(formatting only)"
    except ValueError:
        summary = "(not JSON: a run failed)"
    print(f"  {name}: {summary}")
PY
}

if diff -r "$WORK/out-rev" "$WORK/out-tree"; then
  echo "bitdiff: every output is byte-identical to $REV" >&2
  exit 0
fi
differing_keys "$WORK/out-rev" "$WORK/out-tree"
echo "bitdiff: outputs differ from $REV" >&2
exit 1
