// Solver cost profiler benchmarks (DESIGN.md §14): the price of profiling
// when it is ON — profiled grounding, profiled solving, the aggregation
// join, and Concretizer::profile end to end — next to the same pipeline
// with profiling off, so bench_diff can watch both the enabled cost and
// the disabled-overhead contract cheaply in CI.  (The authoritative
// disabled-overhead measurement is the interleaved A/B of
// `bench/run_asp_core_ab.sh profile` against the pre-profiler tree.)
#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_common.hpp"
#include "src/asp/asp.hpp"

namespace {

using namespace splice::asp;

Program pigeonhole(int holes) {
  std::string text;
  for (int h = 0; h < holes; ++h) text += "hole(h" + std::to_string(h) + ").\n";
  for (int p = 0; p <= holes; ++p) {
    text += "1 { at(p" + std::to_string(p) + ", H) : hole(H) } 1.\n";
  }
  text += ":- at(P1, H), at(P2, H), P1 < P2.\n";
  return parse_program(text);
}

/// Grounding with per-rule cost accounting off vs on (same program).
void BM_GroundProfileOff(benchmark::State& state) {
  Program p = pigeonhole(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    GroundProgram gp = ground(p);
    benchmark::DoNotOptimize(gp.stats.rules);
  }
}
BENCHMARK(BM_GroundProfileOff)->Arg(6)->Arg(8);

void BM_GroundProfileOn(benchmark::State& state) {
  Program p = pigeonhole(static_cast<int>(state.range(0)));
  GroundOptions opts;
  opts.record_provenance = true;
  opts.profile = true;
  for (auto _ : state) {
    GroundProgram gp = ground(p, opts);
    benchmark::DoNotOptimize(gp.profile->per_rule.size());
  }
}
BENCHMARK(BM_GroundProfileOn)->Arg(6)->Arg(8);

/// CDCL with per-origin accounting off vs on (UNSAT pigeonhole: real
/// search, so the profiled counters are on the hot path).
void BM_SolveProfileOff(benchmark::State& state) {
  Program p = pigeonhole(static_cast<int>(state.range(0)));
  GroundProgram gp = ground(p);
  for (auto _ : state) {
    SolveResult r = solve_ground(gp);
    benchmark::DoNotOptimize(r.sat);
  }
}
BENCHMARK(BM_SolveProfileOff)->Arg(6)->Arg(7);

void BM_SolveProfileOn(benchmark::State& state) {
  Program p = pigeonhole(static_cast<int>(state.range(0)));
  GroundOptions gopts;
  gopts.record_provenance = true;
  gopts.profile = true;
  GroundProgram gp = ground(p, gopts);
  SolveOptions sopts;
  sopts.profile = true;
  for (auto _ : state) {
    SolveResult r = solve_ground(gp, sopts);
    benchmark::DoNotOptimize(r.profile->sat.per_origin.size());
  }
}
BENCHMARK(BM_SolveProfileOn)->Arg(6)->Arg(7);

/// The aggregation join alone: SAT origins -> ground constructs ->
/// source rules -> directive/predicate/bucket rows.
void BM_AggregateProfile(benchmark::State& state) {
  Program p = pigeonhole(static_cast<int>(state.range(0)));
  GroundOptions gopts;
  gopts.record_provenance = true;
  gopts.profile = true;
  GroundProgram gp = ground(p, gopts);
  SolveOptions sopts;
  sopts.profile = true;
  SolveResult r = solve_ground(gp, sopts);
  for (auto _ : state) {
    Profile prof = aggregate_profile(*r.profile, p);
    benchmark::DoNotOptimize(prof.buckets.size());
  }
}
BENCHMARK(BM_AggregateProfile)->Arg(6)->Arg(8);

/// End to end: Concretizer::profile over the RADIUSS workload (compile +
/// profiled ground + profiled solve + aggregation + directive resolution).
void BM_ConcretizerProfile(benchmark::State& state) {
  using namespace splice;
  repo::Repository repo = workload::radiuss_repo();
  concretize::ConcretizerOptions opts;
  opts.enable_splicing = true;
  concretize::Concretizer c(repo, opts);
  for (const auto& s : workload::local_cache_specs(repo)) c.add_reusable(s);
  std::vector<concretize::Request> reqs{concretize::Request("visit ^mpiabi")};
  for (auto _ : state) {
    concretize::ProfileReport report = c.profile(reqs);
    benchmark::DoNotOptimize(report.profile.directives.size());
  }
}
BENCHMARK(BM_ConcretizerProfile);

}  // namespace

int main(int argc, char** argv) {
  return splice::bench::run_benchmarks_and_write_json(argc, argv, "profile");
}
