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
# Methodology: both trees build RelWithDebInfo.  Each round runs every
# benchmark once per side, one process per (benchmark, side)
# (--benchmark_filter), the two sides back to back with the first side
# flipping each round, so machine noise and drift hit both sides of a pair
# alike.  A pair's ratio is after/before of the two per-iteration real
# times.  The table prints each benchmark's median paired ratio; both
# result files use schema splice-bench-v1 (each side's samples aggregated
# per benchmark).  Exit status 0 when the median of all paired ratios is
# at most 1.02 (<= 2% overhead), 1 otherwise.
#
# Usage: bench/run_asp_core_ab.sh flight|profile [rounds]
#   ROUNDS      override round count (default 8, at least 6)
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
ROUNDS="${2:-${ROUNDS:-8}}"
if [ "$ROUNDS" -lt 6 ]; then
  echo "$MODE-ab: need at least 6 rounds, got $ROUNDS" >&2
  exit 2
fi
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

if ! BENCHES="$(SPLICE_BENCH_JSON_DIR="$WORK" \
     "$WORK/before/bench/bench_asp_core" --benchmark_list_tests)"; then
  echo "$MODE-ab: the before binary does not run" >&2
  exit 1
fi

rm -rf "$WORK/json"
for r in $(seq 1 "$ROUNDS"); do
  if [ $((r % 2)) = 1 ]; then order="before after"; else order="after before"; fi
  echo "$MODE-ab: round $r/$ROUNDS" >&2
  i=0
  for bench in $BENCHES; do
    i=$((i + 1))
    for side in $order; do
      mkdir -p "$WORK/json/$side-$r-$i"
      SPLICE_BENCH_JSON_DIR="$WORK/json/$side-$r-$i" \
        "$WORK/$side/bench/bench_asp_core" --benchmark_filter="^$bench\$" \
        --benchmark_min_time="$MIN_TIME" >/dev/null 2>&1
    done
  done
done

python3 - "$MODE" "$WORK/json" "$OUT" "$ROUNDS" "$MIN_TIME" <<'EOF'
import glob, json, math, statistics, sys
mode, json_dir, out_dir = sys.argv[1], sys.argv[2], sys.argv[3]
rounds, min_time = int(sys.argv[4]), sys.argv[5]

def collect(side):
    """{benchmark: [seconds of round 1, round 2, ...]}."""
    samples = {}
    for r in range(1, rounds + 1):
        for path in glob.glob(f"{json_dir}/{side}-{r}-*/BENCH_asp_core.json"):
            with open(path) as f:
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
note = (f"{rounds} rounds of bench_asp_core {what}; each round runs every "
        "benchmark in its own process on both sides back to back, the first "
        "side alternating by round (RelWithDebInfo, "
        f"--benchmark_min_time={min_time}).  Each sample is one run's "
        f"per-iteration real time.  The {contract} is a median paired "
        "(same benchmark, same round) after/before ratio <= 1.02.")

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
print(f"\n{'benchmark':<34} {b_label + ' med (ns)':>16} "
      f"{a_label + ' med (ns)':>16} {'paired':>8}")
pairs = []
for name in sorted(before):
    ratios = [a / b for b, a in zip(before[name], after[name])]
    pairs += ratios
    print(f"{name:<34} {statistics.median(before[name]) * 1e9:>16.0f} "
          f"{statistics.median(after[name]) * 1e9:>16.0f} "
          f"{(statistics.median(ratios) - 1) * 100:>+7.2f}%")
median = (statistics.median(pairs) - 1) * 100
print(f"\nmedian paired ratio over {len(pairs)} pairs: {median:+.2f}%")
sys.exit(0 if median <= 2.0 else 1)
EOF
