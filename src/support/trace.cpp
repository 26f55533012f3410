#include "src/support/trace.hpp"

#include <algorithm>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "src/support/chrome.hpp"
#include "src/support/strings.hpp"

namespace splice::trace {

// ---- MetricsRegistry -------------------------------------------------------

void MetricsRegistry::add(const std::string& name, std::int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

void MetricsRegistry::set_gauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

void MetricsRegistry::observe(const std::string& name, double sample) {
  std::lock_guard<std::mutex> lock(mu_);
  histograms_[name].push_back(sample);
}

std::int64_t MetricsRegistry::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

namespace {

/// Nearest-rank percentile over a sorted sample vector.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  auto rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(sorted.size()) + 0.5);
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

MetricsRegistry::HistSummary summarize(std::vector<double> samples) {
  MetricsRegistry::HistSummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.min = samples.front();
  s.max = samples.back();
  for (double x : samples) s.mean += x;
  s.mean /= static_cast<double>(samples.size());
  s.p50 = percentile(samples, 50);
  s.p90 = percentile(samples, 90);
  s.p95 = percentile(samples, 95);
  s.p99 = percentile(samples, 99);
  return s;
}

json::Value hist_json(const MetricsRegistry::HistSummary& s) {
  json::Object o;
  o["count"] = static_cast<std::int64_t>(s.count);
  o["min"] = s.min;
  o["max"] = s.max;
  o["mean"] = s.mean;
  o["p50"] = s.p50;
  o["p90"] = s.p90;
  o["p95"] = s.p95;
  o["p99"] = s.p99;
  return json::Value(std::move(o));
}

}  // namespace

MetricsRegistry::HistSummary MetricsRegistry::histogram(
    const std::string& name) const {
  std::vector<double> samples;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = histograms_.find(name);
    if (it != histograms_.end()) samples = it->second;
  }
  return summarize(std::move(samples));
}

json::Value MetricsRegistry::to_json() const {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, std::vector<double>> histograms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    counters = counters_;
    gauges = gauges_;
    histograms = histograms_;
  }
  json::Object out;
  json::Object jc;
  for (const auto& [k, v] : counters) jc[k] = v;
  out["counters"] = json::Value(std::move(jc));
  json::Object jg;
  for (const auto& [k, v] : gauges) jg[k] = v;
  out["gauges"] = json::Value(std::move(jg));
  json::Object jh;
  for (auto& [k, v] : histograms) jh[k] = hist_json(summarize(std::move(v)));
  out["histograms"] = json::Value(std::move(jh));
  return json::Value(std::move(out));
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

// ---- Prometheus text exposition --------------------------------------------

namespace {

/// Clamp a metric name to the Prometheus grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string sanitize_family(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
              c == ':' || (!out.empty() && c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) out = "_";
  return out;
}

/// Escape a label value: backslash, double quote and newline.
std::string escape_label(std::string_view v) {
  std::string out;
  for (char c : v) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// One exposition family: the split of a registry name at its first '/'
/// (family part prefixed + sanitized, remainder a `key` label).
struct SeriesName {
  std::string family;
  std::string key;  ///< empty = no label
};

SeriesName split_series(std::string_view prefix, const std::string& name) {
  SeriesName out;
  std::size_t slash = name.find('/');
  std::string head = std::string(prefix) +
                     (slash == std::string::npos ? name : name.substr(0, slash));
  out.family = sanitize_family(head);
  if (slash != std::string::npos) out.key = name.substr(slash + 1);
  return out;
}

std::string series_ref(const SeriesName& s,
                       const std::string& extra_label = {}) {
  std::string out = s.family;
  std::vector<std::string> labels;
  if (!s.key.empty()) labels.push_back("key=\"" + escape_label(s.key) + "\"");
  if (!extra_label.empty()) labels.push_back(extra_label);
  if (!labels.empty()) {
    out.push_back('{');
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) out.push_back(',');
      out += labels[i];
    }
    out.push_back('}');
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::metrics_text(std::string_view prefix) const {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, std::vector<double>> histograms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    counters = counters_;
    gauges = gauges_;
    histograms = histograms_;
  }
  // Group series by family so each family gets exactly one # TYPE line;
  // a family name claimed by an earlier metric kind gets a disambiguating
  // suffix rather than a second, contradictory TYPE.
  std::map<std::string, std::string> family_type;
  auto family_for = [&](SeriesName& s, const char* type) {
    while (true) {
      auto it = family_type.find(s.family);
      if (it == family_type.end()) {
        family_type.emplace(s.family, type);
        return true;  // first series of this family: emit # TYPE
      }
      if (it->second == type) return false;
      s.family += "_";  // cross-kind collision: rename, keep both families
    }
  };
  std::string out;
  for (const auto& [name, value] : counters) {
    SeriesName s = split_series(prefix, name);
    if (family_for(s, "counter")) {
      out += "# TYPE " + s.family + " counter\n";
    }
    out += series_ref(s) + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    SeriesName s = split_series(prefix, name);
    if (family_for(s, "gauge")) out += "# TYPE " + s.family + " gauge\n";
    out += series_ref(s) + " " + format_double(value) + "\n";
  }
  for (auto& [name, samples] : histograms) {
    SeriesName s = split_series(prefix, name);
    if (family_for(s, "summary")) out += "# TYPE " + s.family + " summary\n";
    HistSummary sum = summarize(std::move(samples));
    out += series_ref(s, "quantile=\"0.5\"") + " " + format_double(sum.p50) +
           "\n";
    out += series_ref(s, "quantile=\"0.9\"") + " " + format_double(sum.p90) +
           "\n";
    out += series_ref(s, "quantile=\"0.95\"") + " " + format_double(sum.p95) +
           "\n";
    out += series_ref(s, "quantile=\"0.99\"") + " " + format_double(sum.p99) +
           "\n";
    SeriesName s_sum = s, s_count = s;
    s_sum.family += "_sum";
    s_count.family += "_count";
    out += series_ref(s_sum) + " " +
           format_double(sum.mean * static_cast<double>(sum.count)) + "\n";
    out += series_ref(s_count) + " " + std::to_string(sum.count) + "\n";
  }
  return out;
}

// ---- Tracer ----------------------------------------------------------------

namespace {

thread_local std::uint32_t t_depth = 0;

/// Small consecutive thread ids keep Chrome trace rows compact.
std::uint32_t next_thread_id() {
  static std::atomic<std::uint32_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::uint32_t Tracer::thread_id() {
  thread_local std::uint32_t id = next_thread_id();
  return id;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::global() {
  static Tracer* tracer = [] {
    auto* t = new Tracer();  // never destroyed: usable from atexit handlers
    // Read once; the exit hook writes to exactly the validated paths.
    static const std::string trace_path = env_path("SPLICE_TRACE");
    static const std::string stats_path = env_path("SPLICE_TRACE_STATS");
    if (!trace_path.empty() || !stats_path.empty()) {
      t->set_enabled(true);
      std::atexit([] {
        Tracer& g = Tracer::global();
        if (!trace_path.empty() && !g.write_chrome_trace(trace_path)) {
          std::fprintf(stderr,
                       "splice: warning: SPLICE_TRACE: cannot write "
                       "chrome trace to \"%s\"\n",
                       trace_path.c_str());
        }
        if (!stats_path.empty() && !g.write_stats(stats_path)) {
          std::fprintf(stderr,
                       "splice: warning: SPLICE_TRACE_STATS: cannot write "
                       "stats to \"%s\"\n",
                       stats_path.c_str());
        }
      });
    }
    return t;
  }();
  return *tracer;
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::instant(std::string_view name, std::string_view category,
                     std::vector<std::pair<std::string, json::Value>> args) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name = std::string(name);
  ev.category = std::string(category);
  ev.phase = TraceEvent::Phase::Instant;
  ev.ts_us = now_us();
  ev.tid = thread_id();
  ev.depth = t_depth;
  ev.args = std::move(args);
  record(std::move(ev));
}

void Tracer::record(TraceEvent ev) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(ev));
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

json::Value Tracer::chrome_trace() const {
  json::Array out;
  for (const TraceEvent& ev : events()) {
    json::Object args;
    for (const auto& [k, v] : ev.args) args[k] = v;
    auto tid = static_cast<std::int64_t>(ev.tid);
    out.push_back(ev.phase == TraceEvent::Phase::Complete
                      ? chrome::complete_event(ev.name, ev.category, ev.ts_us,
                                               ev.dur_us, tid, std::move(args))
                      : chrome::instant_event(ev.name, ev.category, ev.ts_us,
                                              tid, std::move(args)));
  }
  return chrome::document(std::move(out));
}

json::Value Tracer::stats_json() const {
  struct SpanAgg {
    std::size_t count = 0;
    double total = 0, min = 0, max = 0;
  };
  std::map<std::string, SpanAgg> spans;
  std::map<std::string, std::int64_t> instants;
  for (const TraceEvent& ev : events()) {
    std::string key =
        ev.category.empty() ? ev.name : ev.category + "/" + ev.name;
    if (ev.phase == TraceEvent::Phase::Instant) {
      ++instants[key];
      continue;
    }
    SpanAgg& a = spans[key];
    double s = ev.dur_us * 1e-6;
    if (a.count == 0 || s < a.min) a.min = s;
    if (a.count == 0 || s > a.max) a.max = s;
    a.total += s;
    ++a.count;
  }
  json::Object doc;
  doc["schema"] = "splice-stats-v1";
  json::Object jspans;
  for (const auto& [key, a] : spans) {
    json::Object o;
    o["count"] = static_cast<std::int64_t>(a.count);
    o["total_seconds"] = a.total;
    o["mean_seconds"] = a.total / static_cast<double>(a.count);
    o["min_seconds"] = a.min;
    o["max_seconds"] = a.max;
    jspans[key] = json::Value(std::move(o));
  }
  doc["spans"] = json::Value(std::move(jspans));
  json::Object jevents;
  for (const auto& [key, n] : instants) jevents[key] = n;
  doc["events"] = json::Value(std::move(jevents));
  doc["metrics"] = metrics_.to_json();
  return json::Value(std::move(doc));
}

namespace {

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) return false;
  out << text << "\n";
  return static_cast<bool>(out);
}

}  // namespace

bool Tracer::write_chrome_trace(const std::string& path) const {
  return write_file(path, chrome_trace().dump_pretty());
}

bool Tracer::write_stats(const std::string& path) const {
  return write_file(path, stats_json().dump_pretty());
}

void Tracer::clear() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
  }
  metrics_.clear();
}

// ---- Span ------------------------------------------------------------------

Span::Span(std::string_view name, std::string_view category, Tracer& tracer)
    : start_(Clock::now()) {
  if (!tracer.enabled()) return;  // end() still times off start_
  tracer_ = &tracer;
  ev_.name = std::string(name);
  ev_.category = std::string(category);
  ev_.ts_us = std::chrono::duration<double, std::micro>(start_ - tracer.epoch_)
                  .count();
  ev_.tid = Tracer::thread_id();
  ev_.depth = t_depth++;
}

// A disabled span that nobody ends keeps its one clock read.
Span::~Span() { if (tracer_ != nullptr) end(); }

void Span::attr(std::string_view key, json::Value value) {
  if (tracer_ == nullptr) return;
  ev_.args.emplace_back(std::string(key), std::move(value));
}

double Span::end() {
  if (end_ == Clock::time_point{}) {
    end_ = Clock::now();
    if (tracer_ != nullptr) {
      ev_.dur_us =
          std::chrono::duration<double, std::micro>(end_ - start_).count();
      --t_depth;
      tracer_->record(std::move(ev_));
      tracer_ = nullptr;
    }
  }
  return std::chrono::duration<double>(end_ - start_).count();
}

}  // namespace splice::trace
