#!/usr/bin/env bash
# Interleaved A/B measurement of bench_asp_core, for the overhead contracts
# of always-on instrumentation (DESIGN.md §12, §14).  Two modes differ only
# in how the "before" binary is built; "after" is always the current tree
# as shipped:
#
#   flight   before: this tree with -DSPLICE_FLIGHT=OFF (SPLICE_FLIGHT_DISABLED,
#            every flight-recorder hook dead code); after: recorder compiled
#            in and enabled at default capacity (the shipped default).
#            -> bench_logs/BENCH_asp_core_flight_{before,after}.json
#   profile  before: the tree at BEFORE_REF (e.g. the commit before the
#            solver cost profiler landed); after: profiling compiled in but
#            not enabled (SolveOptions::profile=false, no SPLICE_PROFILE).
#            -> bench_logs/BENCH_asp_core_profile_{before,after}.json
#
# Methodology (bench_logs/TRACING_OVERHEAD.md): both trees build
# RelWithDebInfo; the two binaries run alternating — before, after, before,
# after, … — for ROUNDS rounds in the same time window so machine noise hits
# both sides equally.  Per benchmark the min across rounds is the comparison
# estimator.  Both result files use schema splice-bench-v1, and the
# per-bench delta table prints at the end.  Exit status 0 when the aggregate
# (sum of mins) delta is <= 2%, 1 otherwise.
#
# Usage: bench/run_asp_core_ab.sh flight|profile [rounds]
#   ROUNDS      override round count (default 10)
#   MIN_TIME    --benchmark_min_time per run (default 0.2)
#   WORK        scratch directory (default <repo>/build-<mode>-ab)
#   BEFORE_REF  profile mode: git ref of the "before" tree (default HEAD:
#               run from the working tree before committing, or name the
#               commit before the change afterwards)
set -euo pipefail

MODE="${1:-}"
case "$MODE" in
  flight | profile) ;;
  *)
    echo "usage: $0 flight|profile [rounds]" >&2
    exit 2
    ;;
esac
REPO="$(cd "$(dirname "$0")/.." && pwd)"
ROUNDS="${2:-${ROUNDS:-10}}"
MIN_TIME="${MIN_TIME:-0.2}"
WORK="${WORK:-$REPO/build-$MODE-ab}"
BEFORE_REF="${BEFORE_REF:-HEAD}"
OUT="$REPO/bench_logs"

build() {  # build <dir> <source> [cmake args...]
  local dir="$1" src="$2"
  shift 2
  cmake -B "$dir" -S "$src" -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@" >/dev/null
  cmake --build "$dir" -j "$(nproc)" --target bench_asp_core >/dev/null
}

if [ "$MODE" = flight ]; then
  build "$WORK/before" "$REPO" -DSPLICE_FLIGHT=OFF
else
  # A plain export of BEFORE_REF: no worktree metadata left in the repo.
  rm -rf "$WORK/before-src"
  mkdir -p "$WORK/before-src"
  git -C "$REPO" archive "$BEFORE_REF" | tar -x -C "$WORK/before-src"
  build "$WORK/before" "$WORK/before-src"
fi
build "$WORK/after" "$REPO"

if ! SPLICE_BENCH_JSON_DIR="$WORK" \
     "$WORK/before/bench/bench_asp_core" --benchmark_list_tests >/dev/null; then
  echo "$MODE-ab: the before binary does not run" >&2
  exit 1
fi

rm -rf "$WORK/json"
for r in $(seq 1 "$ROUNDS"); do
  for side in before after; do
    mkdir -p "$WORK/json/$side-$r"
    echo "$MODE-ab: round $r/$ROUNDS ($side)" >&2
    SPLICE_BENCH_JSON_DIR="$WORK/json/$side-$r" \
      "$WORK/$side/bench/bench_asp_core" \
      --benchmark_min_time="$MIN_TIME" >/dev/null 2>&1
  done
done

python3 - "$MODE" "$WORK/json" "$OUT" "$ROUNDS" "$MIN_TIME" <<'EOF'
import json, math, statistics, sys
mode, json_dir, out_dir = sys.argv[1], sys.argv[2], sys.argv[3]
rounds, min_time = int(sys.argv[4]), sys.argv[5]

def collect(side):
    samples = {}
    for r in range(1, rounds + 1):
        with open(f"{json_dir}/{side}-{r}/BENCH_asp_core.json") as f:
            doc = json.load(f)
        for name, cell in doc["series"]["bench"].items():
            samples.setdefault(name, []).append(cell["mean_seconds"])
    return samples

def aggregate(samples):
    series = {}
    for name, xs in sorted(samples.items()):
        xs = sorted(xs)
        n = len(xs)
        series[name] = {
            "n": n,
            "mean_seconds": statistics.fmean(xs),
            "stddev_seconds": statistics.stdev(xs) if n > 1 else 0.0,
            "median_seconds": statistics.median(xs),
            "p90_seconds": xs[min(n - 1, math.ceil(0.9 * n) - 1)],
            "min_seconds": xs[0],
            "max_seconds": xs[-1],
        }
    return series

sides_text = {
    "flight": ("with the flight recorder compiled out (-DSPLICE_FLIGHT=OFF, "
               "'before') and compiled in + enabled at default capacity "
               "('after')", "overhead contract", ("off", "on")),
    "profile": ("from the pre-profiler tree ('before') and the profiler tree "
                "with profiling compiled in but disabled ('after': "
                "SolveOptions::profile=false, the shipped default)",
                "disabled-overhead contract", ("before", "after")),
}
what, contract, (b_label, a_label) = sides_text[mode]
note = (f"{rounds} interleaved runs of bench_asp_core {what}, alternating in "
        "the same time window on the same machine (RelWithDebInfo, "
        f"--benchmark_min_time={min_time}); each sample is one run's "
        f"per-iteration real time.  Compare min_seconds; the {contract} is "
        "an aggregate (sum of mins) delta <= 2%.")

sides = {"before": collect("before"), "after": collect("after")}
for stem, samples in sides.items():
    doc = {"schema": "splice-bench-v1", "bench": f"asp_core_{mode}_{stem}",
           "note": note, "series": {"bench": aggregate(samples)}}
    path = f"{out_dir}/BENCH_asp_core_{mode}_{stem}.json"
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"{mode}-ab: wrote {path}", file=sys.stderr)

before, after = sides["before"], sides["after"]
print(f"\n{'benchmark':<34} {b_label + ' (ns)':>14} {a_label + ' (ns)':>14} "
      f"{'delta':>8}")
total_b = total_a = 0.0
for name in sorted(before):
    b, a = min(before[name]), min(after[name])
    total_b += b; total_a += a
    print(f"{name:<34} {b * 1e9:>14.0f} {a * 1e9:>14.0f} "
          f"{(a - b) / b * 100:>+7.2f}%")
agg = (total_a - total_b) / total_b * 100
deltas = sorted((min(after[n]) - min(before[n])) / min(before[n]) * 100
                for n in before)
median = statistics.median(deltas)
print(f"\naggregate (sum of mins): {agg:+.2f}%   median per-bench: {median:+.2f}%")
sys.exit(0 if agg <= 2.0 else 1)
EOF
