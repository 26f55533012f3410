// Unified tracing & metrics: the observability substrate under the whole
// concretization pipeline.
//
// Three pieces, all zero-dependency (steady_clock + the in-tree JSON DOM):
//
//   * Tracer — a process-wide event sink.  RAII `Span`s record nested,
//     thread-aware wall-clock intervals with key/value attributes; `instant`
//     records point events (solver restarts, optimization bound
//     improvements).  Default-off: when disabled a Span costs one clock
//     read and records nothing, so instrumentation stays compiled into
//     release builds.
//   * MetricsRegistry — named counters, gauges and histograms (with
//     nearest-rank percentiles), for quantities that aggregate rather than
//     nest (per-predicate ground-atom counts, rewire bytes written).
//   * Exporters — Chrome trace-event JSON (`chrome_trace`, loadable in
//     chrome://tracing and Perfetto) and a flat stats JSON (`stats_json`,
//     schema "splice-stats-v1") that the bench harness and `splice run
//     --stats` both emit, so every perf claim in this repo reports through one
//     format.
//
// Environment hook: setting SPLICE_TRACE=<file> enables the global tracer
// at startup and dumps the Chrome trace to <file> at process exit
// (SPLICE_TRACE_STATS=<file> additionally dumps the stats JSON).  Works in
// every binary linking splice_support: tools, benches, tests, examples.  A
// blank value warns and is ignored (splice::env_path).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/json.hpp"

namespace splice::trace {

/// One recorded event.  Complete events carry a duration; instant events
/// mark a point in time.  Timestamps are microseconds since the tracer's
/// epoch (steady clock), as Chrome trace-event "ts" expects.
struct TraceEvent {
  enum class Phase : std::uint8_t { Complete, Instant };
  std::string name;
  std::string category;
  Phase phase = Phase::Complete;
  double ts_us = 0;
  double dur_us = 0;             ///< Complete events only
  std::uint32_t tid = 0;         ///< small per-thread id, not the OS tid
  std::uint32_t depth = 0;       ///< span nesting depth at record time
  std::vector<std::pair<std::string, json::Value>> args;
};

/// Counters, gauges and histograms keyed by name.  Thread-safe; all
/// operations are cheap enough for per-solve (not per-propagation) use.
class MetricsRegistry {
 public:
  void add(const std::string& name, std::int64_t delta = 1);
  void set_gauge(const std::string& name, double value);
  void observe(const std::string& name, double sample);

  std::int64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;

  struct HistSummary {
    std::size_t count = 0;
    double min = 0, max = 0, mean = 0;
    double p50 = 0, p90 = 0, p95 = 0, p99 = 0;
  };
  /// Nearest-rank percentiles over everything observed so far.
  HistSummary histogram(const std::string& name) const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: summary}}.
  json::Value to_json() const;

  /// Prometheus text exposition (version 0.0.4): counters and gauges become
  /// samples, histograms become summaries with p50/p95/p99 quantiles plus
  /// `_sum`/`_count`.  Metric names are prefixed and sanitized to the
  /// `[a-zA-Z_:][a-zA-Z0-9_:]*` grammar; everything after a name's first
  /// '/' becomes a `key="..."` label, so families like `ground.atoms/<sig>`
  /// expose one series per signature.
  std::string metrics_text(std::string_view prefix = "splice_") const;

  void clear();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, std::vector<double>> histograms_;
};

class Span;

/// The process-wide event sink.  All pipeline instrumentation records into
/// `Tracer::global()`; tests may construct private instances.
class Tracer {
 public:
  Tracer();

  /// The singleton used by the instrumented pipeline.  First access honours
  /// the SPLICE_TRACE / SPLICE_TRACE_STATS environment hooks.
  static Tracer& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Record a point event (no-op when disabled).
  void instant(std::string_view name, std::string_view category = "",
               std::vector<std::pair<std::string, json::Value>> args = {});

  /// Microseconds since this tracer's epoch.
  double now_us() const;

  /// Snapshot of every recorded event, in completion order.
  std::vector<TraceEvent> events() const;

  /// Chrome trace-event JSON: {"displayTimeUnit": "ms", "traceEvents": [...]}.
  json::Value chrome_trace() const;

  /// Flat stats JSON, schema "splice-stats-v1": spans aggregated by
  /// category/name (count, total/mean/min/max seconds), instant-event
  /// counts, and the metrics registry.
  json::Value stats_json() const;

  /// Write the corresponding export to a file; returns false on I/O error.
  bool write_chrome_trace(const std::string& path) const;
  bool write_stats(const std::string& path) const;

  /// Drop all recorded events and metrics (not the enabled flag).
  void clear();

  /// The calling thread's small sequential id, shared by every Tracer and
  /// the flight recorder so one thread has one `tid` in all their exports.
  static std::uint32_t thread_id();

 private:
  friend class Span;
  void record(TraceEvent ev);

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  MetricsRegistry metrics_;
};

/// RAII timed interval.  Constructed against the global tracer by default;
/// records a Complete event at destruction (or explicit end()).  When the
/// tracer is disabled at construction the span records nothing but still
/// times, so callers take their durations from the span they already have.
class Span {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Span(std::string_view name, std::string_view category = "",
                Tracer& tracer = Tracer::global());
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach a key/value attribute (no-op when recording is off).
  void attr(std::string_view key, json::Value value);

  /// End the span now instead of at scope exit and return its duration in
  /// seconds.  Reads the clock once; idempotent (later calls return the
  /// same duration).
  double end();

  Clock::time_point start_time() const { return start_; }
  Clock::time_point end_time() const { return end_; }  ///< after end()

 private:
  Tracer* tracer_ = nullptr;  ///< null when recording is off
  Clock::time_point start_;
  Clock::time_point end_{};   ///< epoch (zero) while the span is open
  TraceEvent ev_;             ///< name/category/args staging (when recording)
};

}  // namespace splice::trace
