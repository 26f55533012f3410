// Shared scaffolding for the figure-reproduction benchmarks.
//
// Environment knobs (all optional):
//   SPLICE_BENCH_REPS    repetitions per configuration (paper: 30; default 5)
//   SPLICE_BENCH_PUBLIC  distinct node specs in the synthetic public cache
//                        (paper: >20000; default 2000 to fit a single-core
//                        container — raise for paper scale)
//   SPLICE_BENCH_ROOTS   comma-separated subset of RADIUSS roots to run
//                        (default: the per-figure selection)
//   SPLICE_BENCH_JSON_DIR  directory for the BENCH_<name>.json result files
//                        (default: current directory)
//
// Every bench binary writes a machine-readable BENCH_<name>.json next to its
// console summary (schema "splice-bench-v1"): per (series, label) cell the
// sample count, mean, stddev, median, p90, min and max in seconds.  The
// bench_logs/ directory keeps committed snapshots for regression claims.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/concretize/concretizer.hpp"
#include "src/support/json.hpp"
#include "src/support/strings.hpp"
#include "src/support/trace.hpp"
#include "src/workload/caches.hpp"
#include "src/workload/radiuss.hpp"

namespace splice::bench {

/// A set-but-malformed knob warns on stderr; the caller falls back.
inline void warn_knob(const char* name, const char* value) {
  std::fprintf(stderr, "bench: warning: ignoring malformed %s=\"%s\"\n",
               name, value);
}

/// A count knob, read by splice::env_count.
inline std::size_t env_size(const char* name, std::size_t fallback) {
  return static_cast<std::size_t>(env_count(name, fallback));
}

/// A comma-separated list knob; empty fields are skipped, and a list with
/// no field at all is malformed.
inline std::vector<std::string> env_list(const char* name,
                                         std::vector<std::string> fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  std::vector<std::string> out;
  for (std::string& field : split(v, ',')) {
    if (!field.empty()) out.push_back(std::move(field));
  }
  if (!out.empty()) return out;
  warn_knob(name, v);
  return fallback;
}

inline std::vector<std::string> env_roots(std::vector<std::string> dflt) {
  return env_list("SPLICE_BENCH_ROOTS", std::move(dflt));
}

/// Online mean/stddev accumulator keyed by (series, label).
class Samples {
 public:
  void add(const std::string& series, const std::string& label, double seconds) {
    data_[series][label].push_back(seconds);
  }

  /// Mark a series as higher-is-better (e.g. throughput in requests/sec):
  /// every cell of the series gets "direction": "higher" and the given unit
  /// in the JSON, so bench_diff knows a *drop* is the regression.  The
  /// sample values then carry that unit, not seconds (the stat field names
  /// stay *_seconds for schema stability).
  void mark_higher_is_better(const std::string& series,
                             const std::string& unit) {
    higher_[series] = unit;
  }

  struct Stat {
    double mean = 0, stddev = 0, min = 0, max = 0;
    double median = 0, p90 = 0;  // nearest-rank, as in MetricsRegistry
    std::size_t n = 0;
  };

  Stat stat(const std::string& series, const std::string& label) const {
    Stat s;
    auto sit = data_.find(series);
    if (sit == data_.end()) return s;
    auto lit = sit->second.find(label);
    if (lit == sit->second.end()) return s;
    const auto& v = lit->second;
    s.n = v.size();
    if (v.empty()) return s;
    s.min = *std::min_element(v.begin(), v.end());
    s.max = *std::max_element(v.begin(), v.end());
    for (double x : v) s.mean += x;
    s.mean /= static_cast<double>(v.size());
    for (double x : v) s.stddev += (x - s.mean) * (x - s.mean);
    s.stddev = v.size() > 1 ? std::sqrt(s.stddev / static_cast<double>(v.size() - 1)) : 0;
    std::vector<double> sorted(v);
    std::sort(sorted.begin(), sorted.end());
    auto rank = [&](double p) {
      std::size_t r = static_cast<std::size_t>(
          p / 100.0 * static_cast<double>(sorted.size()) + 0.5);
      return sorted[std::max<std::size_t>(1, r) - 1];
    };
    s.median = rank(50);
    s.p90 = rank(90);
    return s;
  }

  /// Mean of per-label means for one series (the paper's "across all specs"
  /// aggregation).
  double series_mean(const std::string& series) const {
    auto sit = data_.find(series);
    if (sit == data_.end() || sit->second.empty()) return 0;
    double total = 0;
    for (const auto& [label, v] : sit->second) {
      double m = 0;
      for (double x : v) m += x;
      total += m / static_cast<double>(v.size());
    }
    return total / static_cast<double>(sit->second.size());
  }

  std::vector<std::string> labels(const std::string& series) const {
    std::vector<std::string> out;
    auto sit = data_.find(series);
    if (sit == data_.end()) return out;
    for (const auto& [label, v] : sit->second) out.push_back(label);
    return out;
  }

  std::vector<std::string> series() const {
    std::vector<std::string> out;
    for (const auto& [name, labels] : data_) out.push_back(name);
    return out;
  }

  /// {"<series>": {"<label>": {n, mean_seconds, stddev_seconds,
  /// median_seconds, p90_seconds, min_seconds, max_seconds}}}.
  json::Value to_json() const {
    json::Object out;
    for (const auto& [name, labels] : data_) {
      auto hit = higher_.find(name);
      json::Object per_series;
      for (const auto& [label, v] : labels) {
        Stat s = stat(name, label);
        json::Object cell;
        cell["n"] = static_cast<std::int64_t>(s.n);
        cell["mean_seconds"] = s.mean;
        cell["stddev_seconds"] = s.stddev;
        cell["median_seconds"] = s.median;
        cell["p90_seconds"] = s.p90;
        cell["min_seconds"] = s.min;
        cell["max_seconds"] = s.max;
        if (hit != higher_.end()) {
          cell["direction"] = "higher";
          cell["unit"] = hit->second;
        }
        per_series[label] = json::Value(std::move(cell));
      }
      out[name] = json::Value(std::move(per_series));
    }
    return json::Value(std::move(out));
  }

 private:
  std::map<std::string, std::map<std::string, std::vector<double>>> data_;
  std::map<std::string, std::string> higher_;  // series -> unit
};

/// Time one call through a tracer span (category "bench").  When tracing is
/// disabled this is exactly one steady_clock read on each side; when
/// SPLICE_TRACE is set the per-iteration spans land in the Chrome trace.
template <typename F>
double time_call(F&& f, std::string_view label = "call") {
  trace::Span span(label, "bench");
  f();
  return span.end();
}

inline double pct_increase(double base, double value) {
  return base > 0 ? (value - base) / base * 100.0 : 0.0;
}

/// Where BENCH_<name>.json goes: $SPLICE_BENCH_JSON_DIR or the current dir.
inline std::string bench_json_path(const std::string& name) {
  std::string prefix = env_path("SPLICE_BENCH_JSON_DIR");
  if (!prefix.empty() && prefix.back() != '/') prefix += '/';
  return prefix + "BENCH_" + name + ".json";
}

/// Write the machine-readable result file every bench binary emits.
inline bool write_bench_json(const std::string& name, const Samples& samples) {
  json::Object obj;
  obj["schema"] = "splice-bench-v1";
  obj["bench"] = name;
  obj["series"] = samples.to_json();
  json::Value doc(std::move(obj));
  std::string path = bench_json_path(name);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return false;
  }
  out << doc.dump_pretty() << '\n';
  // stderr: stdout may be carrying --benchmark_format=json output.
  std::fprintf(stderr, "bench: wrote %s\n", path.c_str());
  return true;
}

/// Console reporter that additionally captures per-iteration real times so
/// BENCHMARK()-style binaries can emit BENCH_<name>.json without touching
/// the timed loops.
class BenchJsonReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      if (run.iterations == 0) continue;
      samples_.add("bench", run.benchmark_name(),
                   run.real_accumulated_time /
                       static_cast<double>(run.iterations));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  const Samples& samples() const { return samples_; }

 private:
  Samples samples_;
};

/// Drop-in replacement for BENCHMARK_MAIN()'s body: run the registered
/// benchmarks and write BENCH_<name>.json from the captured real times.
inline int run_benchmarks_and_write_json(int argc, char** argv,
                                         const std::string& name) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  BenchJsonReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  write_bench_json(name, reporter.samples());
  return 0;
}

}  // namespace splice::bench
