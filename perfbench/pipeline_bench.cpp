// pipeline_bench: libsplice's concretize -> splice -> rewire pipeline under
// two seeded workloads, driven through the public API only.
//
//   pipeline_bench --workload public-splice|local-rewire
//                  --seed N --seconds S --trace 0|1 --work DIR
//
// Every workload serves whole rounds of the same request multiset (the 32
// RADIUSS roots; the 17 MPI roots as `<root> ^mpiabi`) in a seeded order,
// checks every answer against its known answer (checker.hpp), and keeps
// going until it has served at least --seconds of timed work and enough
// requests for a p90 with ten samples beyond it.  A partial round is never
// timed, so the figures cannot drift with how far a time window got.
// Untimed filesystem work (input generation, removing a site tree) is
// flushed with syncfs before timing resumes: its write-back would otherwise
// land inside later requests and dominate their spread.
//
// Output: a `stamp` line recording the configuration, then, last, one JSON
// object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 they are the per-layer
// ones, measured by spans around each call into a layer (spans.hpp), and
// the spans are written to DIR/traces/.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/checker.hpp"
#include "perfbench/inputs.hpp"
#include "perfbench/spans.hpp"
#include "src/binary/buildcache.hpp"
#include "src/binary/database.hpp"
#include "src/binary/installer.hpp"
#include "src/concretize/concretizer.hpp"
#include "src/support/json.hpp"
#include "src/workload/radiuss.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

namespace fs = std::filesystem;
namespace json = splice::json;
using namespace perfbench;
using splice::binary::BuildCache;
using splice::concretize::ConcretizeResult;
using splice::concretize::Concretizer;
using splice::spec::Spec;

/// Set-up runs this many times per run; setup_s is their median.
constexpr std::size_t kSetups = 3;
/// Timed requests per run at least: a p90 with ten samples beyond it.
constexpr std::size_t kMinSamples = 100;
constexpr std::size_t kPublicNodes = 5000;
constexpr std::size_t kMockBinaryBytes = std::size_t{1} << 20;
/// glibc malloc thresholds, fixed for the whole run.  With glibc's dynamic
/// thresholds, whether the installer's 1 MiB binary buffers came from the
/// heap or from freshly faulted pages depended on allocation history, so
/// local-rewire's throughput moved by 20-35% with the request order alone.
/// Fixed, the heap keeps what it has faulted in and serves every buffer.
constexpr int kMmapThreshold = 32 << 20;
constexpr int kTrimThreshold = 256 << 20;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  fs::path work;
};

/// Means of per-layer samples, by metric name.
class Layers {
 public:
  void add(const std::string& name, double v) {
    auto& [sum, n] = acc_[name];
    sum += v;
    ++n;
  }
  double mean(const std::string& name) const {
    auto it = acc_.find(name);
    return it == acc_.end() ? 0.0 : it->second.first / it->second.second;
  }

 private:
  std::map<std::string, std::pair<double, std::size_t>> acc_;
};

struct Run {
  explicit Run(Args a) : args(std::move(a)), log(args.trace) {}

  Args args;
  SpanLog log;
  Layers layers;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool timed = false;               ///< inside the timed rounds
  std::size_t timed_requests = 0;   ///< attempted in timed rounds
  double timed_seconds = 0;         ///< wall time of whole timed rounds
  std::vector<double> latencies;    ///< timed requests that passed
  std::size_t builds = 0;           ///< must-build nodes, timed requests
  std::vector<double> setups;
  std::size_t cache_builds = 0;     ///< compile caches built, timed rounds
  std::size_t rounds = 0;
  json::Array round_seconds;
  json::Value stamp;
  long next_id = 0;
};

/// Flush the filesystem holding `dir`, so that write-back and journal work
/// one request leaves behind does not land inside the next one's timing.
void settle_fs(const fs::path& dir) {
  if (std::FILE* f = std::fopen(dir.c_str(), "r")) {
    ::syncfs(fileno(f));
    std::fclose(f);
  }
}

splice::concretize::ConcretizerOptions splice_options() {
  splice::concretize::ConcretizerOptions opts;
  opts.encoding = splice::concretize::ReuseEncoding::Indirect;
  opts.enable_splicing = true;
  return opts;
}

/// Linear-interpolated quantile of a sorted sample.
double quantile(const std::vector<double>& sorted, double q) {
  double pos = q * static_cast<double>(sorted.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile(v, 0.5);
}

void count_attempt(Run& run) {
  ++run.attempted;
  if (run.timed) ++run.timed_requests;
}

void fail_request(Run& run, const std::string& why) {
  ++run.failed;
  std::fprintf(stderr, "FAILED %s\n", why.c_str());
}

/// Per-request concretizer and ASP figures, from the result the call
/// returned; `request_s` is the call's wall time.
void record_solve(Run& run, const ConcretizeResult& r, double request_s) {
  if (!run.timed) return;
  const splice::asp::SolveStats& st = r.stats;
  Layers& l = run.layers;
  l.add("concretize.request_s", request_s);
  l.add("concretize.self_s", request_s - st.total_seconds());
  l.add("concretize.builds", static_cast<double>(r.build_names.size()));
  l.add("concretize.reused", static_cast<double>(r.reused_hashes.size()));
  l.add("concretize.splices", static_cast<double>(r.splices.size()));
  l.add("asp.ground_s", st.ground_seconds);
  l.add("asp.translate_s", st.translate_seconds);
  l.add("asp.solve_s", st.solve_seconds);
  l.add("asp.ground_rules", static_cast<double>(st.ground.rules));
  l.add("asp.ground_atoms", static_cast<double>(st.ground.possible_atoms));
  l.add("asp.ground_choices", static_cast<double>(st.ground.choices));
  l.add("asp.sat_vars", static_cast<double>(st.sat_vars));
  l.add("asp.sat_clauses", static_cast<double>(st.sat_clauses));
  l.add("asp.conflicts", static_cast<double>(st.conflicts));
  l.add("asp.decisions", static_cast<double>(st.decisions));
  l.add("asp.propagations", static_cast<double>(st.propagations));
  l.add("asp.models_enumerated", static_cast<double>(st.models_enumerated));
  l.add("asp.loop_nogoods", static_cast<double>(st.loop_nogoods));
}

/// Check one answer; counts the request failed unless it passes.
bool check(Run& run, const RoundRequest& req, const ConcretizeResult& result,
           const BuildCache& cache, long id) {
  SpanLog::Scope span(run.log, "bench.check", id);
  Verdict v = check_answer(req, result, cache);
  if (run.timed) {
    run.builds += v.builds;
    run.layers.add("bench.check_s", span.close());
  }
  if (!v.ok()) {
    std::string why;
    for (const std::string& p : v.problems) why += (why.empty() ? "" : "; ") + p;
    fail_request(run, why);
  }
  return v.ok();
}

/// Run after the answer is checked, inside the request's latency.
using InstallStep = std::function<void(const ConcretizeResult&, long id)>;

/// One closed-loop request: concretize, check, then `install` if given.
void serve(Run& run, const Concretizer& c, const BuildCache& cache,
           const RoundRequest& req, const InstallStep& install) {
  long id = run.next_id++;
  count_attempt(run);
  SpanLog::Scope whole(run.log, "request", id);
  try {
    ConcretizeResult result;
    {
      SpanLog::Scope span(run.log, "concretize.request", id);
      result = c.concretize(req.request);
      record_solve(run, result, span.close());
    }
    if (!check(run, req, result, cache, id)) return;
    if (install) install(result, id);
  } catch (const std::exception& e) {
    fail_request(run, req.root + ": " + e.what());
    return;
  }
  double seconds = whole.close();
  if (run.timed) run.latencies.push_back(seconds);
}

/// Serve round `round` in its seeded order; `after` runs untimed after
/// each request.  Returns the round's wall time minus the untimed parts.
double serve_round(Run& run, std::size_t round, const Concretizer& c,
                   const BuildCache& cache, const InstallStep& install,
                   const std::function<void()>& after = {}) {
  static const std::vector<RoundRequest> reqs = round_requests();
  double untimed = 0;
  double start = run.log.now();
  for (std::size_t i : round_order(run.args.seed, round, reqs.size())) {
    serve(run, c, cache, reqs[i], install);
    if (after) {
      double t = run.log.now();
      after();
      untimed += run.log.now() - t;
    }
  }
  return run.log.now() - start - untimed;
}

/// Whole timed rounds until both the time and the sample floor are met.
void timed_rounds(Run& run, const std::function<double(std::size_t)>& round) {
  run.timed = true;
  for (std::size_t r = 1;
       run.timed_seconds < run.args.seconds || run.timed_requests < kMinSamples;
       ++r) {
    double seconds = round(r);
    run.timed_seconds += seconds;
    run.round_seconds.push_back(seconds);
    ++run.rounds;
  }
  run.timed = false;
}

std::optional<BuildCache> open_cache(Run& run, const fs::path& dir) {
  SpanLog::Scope span(run.log, "binary.cache_load");
  std::optional<BuildCache> cache(std::in_place, dir);
  run.layers.add("binary.cache_load_s", span.close());
  run.layers.add("binary.cache_entries", static_cast<double>(cache->size()));
  return cache;
}

template <typename Container>
void register_specs(Run& run, Concretizer& c, const Container& specs,
                    const char* metric) {
  SpanLog::Scope span(run.log, "concretize.register");
  c.add_reusable_all(specs);
  run.layers.add(metric, span.close());
}

// ---------------------------------------------------------------------------
// public-splice: one client against an index-only ~5,000-node public cache.
// Grounding dominates; the installer is idle.

void public_splice(Run& run) {
  splice::repo::Repository repo = splice::workload::radiuss_repo();
  fs::path dir = ensure_cache_dir(repo, run.args.work / "inputs", run.args.seed,
                                  kPublicNodes);
  settle_fs(dir);
  std::optional<BuildCache> cache;
  std::optional<Concretizer> c;
  for (std::size_t k = 0; k < kSetups; ++k) {
    c.reset();
    cache.reset();
    SpanLog::Scope setup(run.log, "setup");
    cache = open_cache(run, dir);
    c.emplace(repo, splice_options());
    register_specs(run, *c, cache->specs(), "concretize.register_s");
    serve_round(run, 0, *c, *cache, {});
    run.setups.push_back(setup.close());
  }
  run.stamp["cache_nodes"] = static_cast<std::uint64_t>(cache->size());
  timed_rounds(run, [&](std::size_t r) {
    std::size_t builds = c->compile_cache_builds();
    SpanLog::Scope span(run.log, "round");
    double s = serve_round(run, r, *c, *cache, {});
    run.cache_builds += c->compile_cache_builds() - builds;
    return s;
  });
}

// ---------------------------------------------------------------------------
// local-rewire: the deploy scenario.  Set-up builds the mpich RADIUSS stack
// from source and publishes it; each request concretizes one root with
// splicing, installs it into a fresh site tree by rewiring, and runs the
// loader check.  The installer dominates; ASP work is small.

void local_rewire(Run& run) {
  splice::repo::Repository repo = splice::workload::radiuss_repo();
  std::vector<Spec> stack = core_stack(repo);
  Rng rng(run.args.seed);
  shuffle(stack, rng);
  fs::path base = run.args.work / ("local-rewire-" + std::to_string(::getpid()));
  fs::path site = base / "site";

  std::optional<BuildCache> cache;
  std::optional<Concretizer> c;
  InstallStep install = [&](const ConcretizeResult& r, long id) {
    splice::binary::InstalledDatabase db{splice::binary::InstallLayout(site)};
    splice::binary::Installer inst(db, splice::workload::radiuss_abi_surface);
    inst.set_code_size(kMockBinaryBytes);
    splice::binary::InstallReport rep;
    {
      SpanLog::Scope span(run.log, "binary.install", id);
      rep = inst.rewire(r.spec, *cache);
      if (run.timed) run.layers.add("binary.install_s", span.close());
    }
    {
      SpanLog::Scope span(run.log, "binary.verify", id);
      inst.verify_runnable(r.spec);
      if (run.timed) run.layers.add("binary.verify_s", span.close());
    }
    if (run.timed) {
      run.layers.add("binary.nodes_relocated", static_cast<double>(rep.relocated));
      run.layers.add("binary.nodes_rewired", static_cast<double>(rep.rewired));
      run.layers.add("binary.nodes_built", static_cast<double>(rep.built));
      run.layers.add("binary.bytes_written", static_cast<double>(rep.bytes_written));
    }
  };
  auto remove_site = [&] {
    fs::remove_all(site);
    settle_fs(base);
  };

  for (std::size_t k = 0; k < kSetups; ++k) {
    c.reset();
    cache.reset();
    fs::remove_all(base);
    fs::create_directories(base);
    settle_fs(base);
    SpanLog::Scope setup(run.log, "setup");
    splice::binary::InstalledDatabase build_db{
        splice::binary::InstallLayout(base / "buildhost")};
    splice::binary::Installer build_host(build_db, splice::workload::radiuss_abi_surface);
    build_host.set_code_size(kMockBinaryBytes);
    {
      SpanLog::Scope span(run.log, "binary.stack_build");
      for (const Spec& s : stack) build_host.install_from_source(s);
      run.layers.add("binary.stack_build_s", span.close());
    }
    cache = open_cache(run, base / "cache");
    {
      SpanLog::Scope span(run.log, "binary.publish");
      for (const Spec& s : stack) build_host.push_to_cache(s, *cache);
      run.layers.add("binary.publish_s", span.close());
      run.layers.add("binary.publish_entries", static_cast<double>(cache->size()));
    }
    c.emplace(repo, splice_options());
    register_specs(run, *c, cache->specs(), "concretize.register_s");
    serve_round(run, 0, *c, *cache, install, remove_site);
    run.setups.push_back(setup.close());
  }
  run.stamp["cache_nodes"] = static_cast<std::uint64_t>(cache->size());
  run.stamp["mock_binary_bytes"] = static_cast<std::uint64_t>(kMockBinaryBytes);
  timed_rounds(run, [&](std::size_t r) {
    std::size_t builds = c->compile_cache_builds();
    SpanLog::Scope span(run.log, "round");
    double s = serve_round(run, r, *c, *cache, install, remove_site);
    run.cache_builds += c->compile_cache_builds() - builds;
    return s;
  });
  fs::remove_all(base);
}

// ---------------------------------------------------------------------------

const std::vector<std::pair<const char*, const char*>>& per_layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> kMetrics = {
      {"binary.cache_load_s", "s"},       {"binary.cache_entries", "count"},
      {"binary.stack_build_s", "s"},      {"binary.publish_s", "s"},
      {"binary.publish_entries", "count"}, {"binary.install_s", "s"},
      {"binary.verify_s", "s"},           {"binary.nodes_relocated", "count"},
      {"binary.nodes_rewired", "count"},  {"binary.nodes_built", "count"},
      {"binary.bytes_written", "bytes"},  {"concretize.register_s", "s"},
      {"concretize.request_s", "s"},      {"concretize.self_s", "s"},
      {"concretize.cache_builds", "count"},
      {"concretize.cache_build_ratio", "ratio"}, {"concretize.builds", "count"},
      {"concretize.reused", "count"},     {"concretize.splices", "count"},
      {"asp.ground_s", "s"},              {"asp.translate_s", "s"},
      {"asp.solve_s", "s"},               {"asp.ground_rules", "count"},
      {"asp.ground_atoms", "count"},      {"asp.ground_choices", "count"},
      {"asp.sat_vars", "count"},          {"asp.sat_clauses", "count"},
      {"asp.conflicts", "count"},         {"asp.decisions", "count"},
      {"asp.propagations", "count"},      {"asp.models_enumerated", "count"},
      {"asp.loop_nogoods", "count"},      {"bench.check_s", "s"},
      {"bench.request_self_s", "s"},      {"trace.latency_p50_s", "s"},
      {"trace.throughput_rps", "1/s"},    {"trace.spans", "count"},
  };
  return kMetrics;
}

json::Value metric(double value, const char* unit) {
  json::Value m;
  m["value"] = value;
  m["unit"] = unit;
  return m;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int usage(const char* why) {
  std::fprintf(stderr,
               "pipeline_bench: %s\nusage: pipeline_bench --workload "
               "public-splice|local-rewire --seed N --seconds S --trace 0|1 "
               "--work DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (mallopt(M_MMAP_THRESHOLD, kMmapThreshold) != 1 ||
      mallopt(M_TRIM_THRESHOLD, kTrimThreshold) != 1) {
    std::fprintf(stderr, "pipeline_bench: cannot fix the malloc thresholds\n");
    return 1;
  }
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work") {
      args.work = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.work.empty()) return usage("--work is required");
  std::function<void(Run&)> workload;
  if (args.workload == "public-splice") {
    workload = public_splice;
  } else if (args.workload == "local-rewire") {
    workload = local_rewire;
  } else {
    return usage("unknown workload");
  }

  Run run(args);
  run.stamp["workload"] = args.workload;
  run.stamp["seed"] = args.seed;
  run.stamp["seconds"] = args.seconds;
  run.stamp["trace"] = args.trace;
  run.stamp["nproc"] = static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  run.stamp["build_type"] = PERFBENCH_BUILD_TYPE;
  run.stamp["workers"] = std::uint64_t{1};
  run.stamp["setups"] = static_cast<std::uint64_t>(kSetups);
  run.stamp["malloc_mmap_threshold"] = static_cast<std::uint64_t>(kMmapThreshold);
  run.stamp["malloc_trim_threshold"] = static_cast<std::uint64_t>(kTrimThreshold);
  try {
    workload(run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipeline_bench: %s\n", e.what());
    return 1;
  }

  std::vector<double> lat = run.latencies;
  std::sort(lat.begin(), lat.end());
  bool enough = !lat.empty();
  double p50 = enough ? quantile(lat, 0.5) : 0;
  double p90 = enough ? quantile(lat, 0.9) : 0;
  std::size_t beyond_p90 = static_cast<std::size_t>(
      lat.end() - std::upper_bound(lat.begin(), lat.end(), p90));
  double rps = static_cast<double>(lat.size()) / run.timed_seconds;
  run.stamp["rounds"] = static_cast<std::uint64_t>(run.rounds);
  run.stamp["latency_samples"] = static_cast<std::uint64_t>(lat.size());
  run.stamp["samples_beyond_p90"] = static_cast<std::uint64_t>(beyond_p90);
  run.stamp["timed_seconds"] = run.timed_seconds;
  run.stamp["round_seconds"] = json::Value(run.round_seconds);
  std::printf("stamp %s\n", run.stamp.dump().c_str());

  json::Value metrics;
  if (!args.trace) {
    metrics["throughput_rps"] = metric(rps, "1/s");
    metrics["latency_p50_s"] = metric(p50, "s");
    // Only a p90 with at least ten samples beyond it is reported.
    if (beyond_p90 >= 10) metrics["latency_p90_s"] = metric(p90, "s");
    metrics["setup_s"] = metric(median(run.setups), "s");
    metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MB");
    metrics["builds_per_request"] =
        metric(static_cast<double>(run.builds) /
                   static_cast<double>(std::max<std::size_t>(run.timed_requests, 1)),
               "count");
  } else {
    Layers& l = run.layers;
    l.add("concretize.cache_builds",
          static_cast<double>(run.cache_builds) / static_cast<double>(run.rounds));
    l.add("concretize.cache_build_ratio",
          static_cast<double>(run.cache_builds) /
              static_cast<double>(std::max<std::size_t>(run.timed_requests, 1)));
    auto totals = run.log.totals();
    if (auto it = totals.find("request"); it != totals.end()) {
      l.add("bench.request_self_s", it->second.self / it->second.count);
    }
    l.add("trace.latency_p50_s", p50);
    l.add("trace.throughput_rps", rps);
    std::size_t spans = 0;
    for (const auto& [name, t] : totals) spans += t.count;
    l.add("trace.spans", static_cast<double>(spans));
    for (const auto& [name, unit] : per_layer_metrics()) {
      metrics[name] = metric(l.mean(name), unit);
    }
    run.log.write_chrome(args.work / "traces" /
                             (args.workload + "-seed" + std::to_string(args.seed) + ".json"),
                         run.stamp);
  }

  bool complete = beyond_p90 >= 10;
  json::Value out;
  out["correct"] = run.failed == 0 && complete;
  out["attempted"] = static_cast<std::uint64_t>(run.attempted);
  out["failed"] = static_cast<std::uint64_t>(run.failed);
  out["metrics"] = metrics;
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
