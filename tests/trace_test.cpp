// Tests for the tracing & metrics layer: span mechanics, attribute
// round-trips through the Chrome exporter, histogram percentiles, solver
// progress events, thread safety, and the end-to-end guarantee that the
// concretizer's phase spans account for the full pipeline span.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "src/asp/asp.hpp"
#include "src/concretize/concretizer.hpp"
#include "src/support/flight.hpp"
#include "src/support/json.hpp"
#include "src/support/strings.hpp"
#include "src/support/trace.hpp"
#include "src/workload/caches.hpp"
#include "src/workload/radiuss.hpp"
#include "tests/scoped_env.hpp"

namespace {

using namespace splice;
using trace::MetricsRegistry;
using trace::Span;
using trace::TraceEvent;
using trace::Tracer;

TEST(SpanTest, NestingOrderingAndDepth) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    Span outer("outer", "test", tracer);
    {
      Span middle("middle", "test", tracer);
      Span inner("inner", "test", tracer);
    }
  }
  std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  // Completion order: innermost first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "middle");
  EXPECT_EQ(events[2].name, "outer");
  EXPECT_EQ(events[0].depth, 2u);
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].depth, 0u);
  // Start order and containment: outer starts first and lasts longest.
  EXPECT_LE(events[2].ts_us, events[1].ts_us);
  EXPECT_LE(events[1].ts_us, events[0].ts_us);
  EXPECT_GE(events[2].dur_us, events[1].dur_us);
  EXPECT_GE(events[1].dur_us, events[0].dur_us);
  for (const TraceEvent& ev : events) EXPECT_EQ(ev.category, "test");
}

TEST(SpanTest, DisabledTracerRecordsNothingButStillTimes) {
  Tracer tracer;  // disabled by default
  Span span("invisible", "test", tracer);
  span.attr("ignored", 1);
  EXPECT_GE(span.end(), 0.0);
  EXPECT_TRUE(tracer.events().empty());
}

TEST(SpanTest, ExplicitEndIsIdempotent) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    Span span("once", "test", tracer);
    span.end();
    span.end();  // second end must not double-record
  }                // destructor must not record either
  EXPECT_EQ(tracer.events().size(), 1u);
}

TEST(ChromeExportTest, AttributeRoundTrip) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    Span span("phase", "pipeline", tracer);
    span.attr("rules", std::int64_t{42});
    span.attr("encoding", "indirect");
    span.attr("splicing", true);
    span.attr("ratio", 0.25);
  }
  tracer.instant("bound", "solver", {{"cost", std::int64_t{7}}});

  // Round-trip through the serialized Chrome trace with the repo parser.
  json::Value doc = json::parse(tracer.chrome_trace().dump());
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->as_array().size(), 2u);

  const json::Value& span_ev = events->as_array()[0];
  EXPECT_EQ(span_ev.find("name")->as_string(), "phase");
  EXPECT_EQ(span_ev.find("cat")->as_string(), "pipeline");
  EXPECT_EQ(span_ev.find("ph")->as_string(), "X");
  EXPECT_GE(span_ev.find("dur")->as_double(), 0.0);
  EXPECT_EQ(span_ev.find("pid")->as_int(), 1);
  const json::Value* args = span_ev.find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->find("rules")->as_int(), 42);
  EXPECT_EQ(args->find("encoding")->as_string(), "indirect");
  EXPECT_EQ(args->find("splicing")->as_bool(), true);
  EXPECT_DOUBLE_EQ(args->find("ratio")->as_double(), 0.25);

  const json::Value& inst_ev = events->as_array()[1];
  EXPECT_EQ(inst_ev.find("name")->as_string(), "bound");
  EXPECT_EQ(inst_ev.find("ph")->as_string(), "i");
  EXPECT_EQ(inst_ev.find("s")->as_string(), "t");
  EXPECT_EQ(inst_ev.find("args")->find("cost")->as_int(), 7);
}

TEST(MetricsTest, CountersAndGauges) {
  MetricsRegistry metrics;
  metrics.add("builds");
  metrics.add("builds", 4);
  metrics.set_gauge("load", 0.75);
  EXPECT_EQ(metrics.counter("builds"), 5);
  EXPECT_EQ(metrics.counter("missing"), 0);
  EXPECT_DOUBLE_EQ(metrics.gauge("load"), 0.75);
}

TEST(MetricsTest, HistogramPercentiles) {
  MetricsRegistry metrics;
  for (int i = 1; i <= 100; ++i) {
    metrics.observe("latency", static_cast<double>(i));
  }
  MetricsRegistry::HistSummary h = metrics.histogram("latency");
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
  EXPECT_DOUBLE_EQ(h.mean, 50.5);
  EXPECT_DOUBLE_EQ(h.p50, 50.0);  // nearest-rank
  EXPECT_DOUBLE_EQ(h.p90, 90.0);
  EXPECT_DOUBLE_EQ(h.p99, 99.0);

  json::Value j = metrics.to_json();
  const json::Value* hist = j.find("histograms");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->find("latency")->find("p90")->as_double(), 90.0);
}

TEST(MetricsTest, PrometheusTextExposition) {
  MetricsRegistry metrics;
  metrics.add("splice.builds", 5);
  metrics.set_gauge("load", 0.75);
  for (int i = 1; i <= 100; ++i) {
    metrics.observe("request/seconds", static_cast<double>(i));
  }
  std::string text = metrics.metrics_text();

  // Counters and gauges: sanitized family, one # TYPE line, then the sample.
  EXPECT_NE(text.find("# TYPE splice_splice_builds counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("splice_splice_builds 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE splice_load gauge\n"), std::string::npos);
  EXPECT_NE(text.find("splice_load 0.75\n"), std::string::npos);

  // Histograms expose all four quantiles (p50/p90/p95/p99) with the
  // post-'/' part as a key label, plus _sum and _count.
  EXPECT_NE(text.find("# TYPE splice_request summary\n"), std::string::npos);
  EXPECT_NE(text.find("splice_request{key=\"seconds\",quantile=\"0.5\"} 50\n"),
            std::string::npos);
  EXPECT_NE(text.find("splice_request{key=\"seconds\",quantile=\"0.9\"} 90\n"),
            std::string::npos);
  EXPECT_NE(text.find("splice_request{key=\"seconds\",quantile=\"0.95\"} 95\n"),
            std::string::npos);
  EXPECT_NE(text.find("splice_request{key=\"seconds\",quantile=\"0.99\"} 99\n"),
            std::string::npos);
  EXPECT_NE(text.find("splice_request_sum{key=\"seconds\"} 5050\n"),
            std::string::npos);
  EXPECT_NE(text.find("splice_request_count{key=\"seconds\"} 100\n"),
            std::string::npos);

  // One TYPE line per family even with several series in it.
  metrics.add("request/errors", 2);
  text = metrics.metrics_text();
  std::size_t first = text.find("# TYPE splice_request ");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE splice_request ", first + 1),
            std::string::npos);
}

TEST(MetricsTest, PrometheusCrossKindCollisionRenames) {
  MetricsRegistry metrics;
  metrics.add("total", 1);         // counter claims splice_total
  metrics.set_gauge("total", 2.0); // gauge must not re-TYPE the family
  std::string text = metrics.metrics_text();
  EXPECT_NE(text.find("# TYPE splice_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("splice_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE splice_total_ gauge\n"), std::string::npos);
  EXPECT_NE(text.find("splice_total_ 2\n"), std::string::npos);
}

TEST(MetricsTest, HistogramP95) {
  MetricsRegistry metrics;
  for (int i = 1; i <= 100; ++i) {
    metrics.observe("latency", static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(metrics.histogram("latency").p95, 95.0);
  json::Value j = metrics.to_json();
  EXPECT_DOUBLE_EQ(
      j.find("histograms")->find("latency")->find("p95")->as_double(), 95.0);
}

/// env_path reading `var` set to `value` (nullptr: unset).
std::string path_of(const char* var, const char* value) {
  testing_env::ScopedEnv env(var, value);
  return env_path(var);
}

TEST(EnvExportTest, BlankPathWarnsInsteadOfSilentlyDropping) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(path_of("SPLICE_TRACE", "  "), "");
  std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("SPLICE_TRACE"), std::string::npos);
  EXPECT_NE(err.find("warning"), std::string::npos);

  testing::internal::CaptureStderr();
  EXPECT_EQ(path_of("SPLICE_TRACE_STATS", ""), "");
  err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("SPLICE_TRACE_STATS"), std::string::npos);
}

TEST(EnvExportTest, UnsetAndUsableValuesStaySilent) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(path_of("SPLICE_TRACE", nullptr), "");
  EXPECT_EQ(path_of("SPLICE_TRACE", "/tmp/out.json"), "/tmp/out.json");
  EXPECT_TRUE(testing::internal::GetCapturedStderr().empty());
}

TEST(MetricsTest, SingleSampleHistogram) {
  MetricsRegistry metrics;
  metrics.observe("one", 3.5);
  MetricsRegistry::HistSummary h = metrics.histogram("one");
  EXPECT_EQ(h.count, 1u);
  EXPECT_DOUBLE_EQ(h.p50, 3.5);
  EXPECT_DOUBLE_EQ(h.p99, 3.5);
}

/// Pigeonhole (n+1 pigeons, n holes): UNSAT, and hard enough that the CDCL
/// core restarts and ticks its conflict counter.
asp::Program pigeonhole_program() {
  const int holes = 7;
  std::string text;
  for (int h = 0; h < holes; ++h) text += "hole(h" + std::to_string(h) + ").\n";
  for (int p = 0; p <= holes; ++p) {
    text += "1 { at(p" + std::to_string(p) + ", H) : hole(H) } 1.\n";
  }
  text += ":- at(P1, H), at(P2, H), P1 < P2.\n";
  return asp::parse_program(text);
}

/// Solve `program` inside a request on the global recorder and return the
/// point events that request received.
std::vector<flight::Event> solve_events(const asp::Program& program,
                                        asp::SolveResult& result) {
  flight::Recorder& rec = flight::Recorder::global();
  std::uint32_t id = 0;
  {
    flight::RequestScope request("progress test", rec);
    id = request.id();
    result = asp::solve_program(program);
  }
  EXPECT_NE(id, 0u) << "the global recorder is off";
  std::vector<flight::Event> out;
  for (const flight::Event& ev : rec.events()) {
    if (ev.request == id && ev.kind > flight::EventKind::PhaseEnd) {
      out.push_back(ev);
    }
  }
  return out;
}

/// The hard instance's search must report restarts and conflict ticks.
TEST(ProgressTest, SolverEventsOnHardInstance) {
  asp::SolveResult result;
  std::vector<flight::Event> events =
      solve_events(pigeonhole_program(), result);

  std::uint64_t restarts = 0, conflict_ticks = 0, models = 0;
  std::int64_t last_conflicts = 0;
  bool monotonic = true;
  for (const flight::Event& ev : events) {
    std::int64_t conflicts = ev.a;
    switch (ev.kind) {
      case flight::EventKind::SatRestart: ++restarts; break;
      case flight::EventKind::SatConflicts: ++conflict_ticks; break;
      case flight::EventKind::ModelFound:
        ++models;
        conflicts = ev.b;
        break;
      case flight::EventKind::LoopNogood: break;
      default: continue;
    }
    EXPECT_EQ(ev.phase, flight::Phase::Solve);
    if (conflicts < last_conflicts) monotonic = false;
    last_conflicts = conflicts;
  }
  EXPECT_FALSE(result.sat);
  EXPECT_EQ(models, 0u);
  EXPECT_GT(result.stats.conflicts, 0u);
  EXPECT_GT(restarts + conflict_ticks, 0u)
      << "no progress events on " << result.stats.conflicts << " conflicts";
  EXPECT_GE(restarts, result.stats.restarts);
  EXPECT_TRUE(monotonic) << "cumulative conflict counts went backwards";
}

/// Optimization instances additionally report models, bound improvements
/// and per-priority level completion.
TEST(ProgressTest, OptimizationEvents) {
  const int n = 8;
  std::string text;
  for (int i = 0; i < n; ++i) {
    text += "vertex(v" + std::to_string(i) + ").\n";
    text += "edge(v" + std::to_string(i) + ", v" + std::to_string((i + 1) % n) +
            ").\n";
  }
  text += "{ in(V) : vertex(V) }.\n";
  text += ":- edge(X, Y), not in(X), not in(Y).\n";
  text += "#minimize { 1@1, V : in(V) }.\n";
  asp::Program program = asp::parse_program(text);

  asp::SolveResult result;
  std::uint64_t models = 0, bounds = 0, levels = 0;
  for (const flight::Event& ev : solve_events(program, result)) {
    switch (ev.kind) {
      case flight::EventKind::ModelFound: ++models; break;
      case flight::EventKind::BoundImproved: ++bounds; break;
      case flight::EventKind::LevelDone: ++levels; break;
      default: break;
    }
  }
  ASSERT_TRUE(result.sat);
  EXPECT_GE(models, 1u);
  EXPECT_EQ(levels, 1u);
  EXPECT_EQ(result.stats.models_enumerated, models);
  ASSERT_EQ(result.model.costs.size(), 1u);
  EXPECT_EQ(result.model.costs[0].second, n / 2);  // optimal cover of a cycle
}

/// The tracer mirrors solver events on its own: with the recorder off, the
/// instants still appear, named by kind_name in the event's phase category.
TEST(ProgressTest, TracerMirrorsSolverEventsWithRecorderOff) {
  Tracer& tracer = Tracer::global();
  flight::Recorder& rec = flight::Recorder::global();
  const bool recording = rec.enabled();
  const std::uint64_t recorded = rec.total_events();
  tracer.clear();
  tracer.set_enabled(true);
  rec.set_enabled(false);
  asp::SolveResult result = asp::solve_program(pigeonhole_program());
  rec.set_enabled(recording);
  tracer.set_enabled(false);

  EXPECT_FALSE(result.sat);
  EXPECT_EQ(rec.total_events(), recorded);
  std::uint64_t restarts = 0;
  for (const TraceEvent& ev : tracer.events()) {
    if (ev.phase != TraceEvent::Phase::Instant) continue;
    if (ev.name.rfind("sat.", 0) != 0 && ev.name.rfind("asp.", 0) != 0) {
      continue;  // ground.done belongs to the ground phase
    }
    EXPECT_EQ(ev.category, "solve") << ev.name;
    ASSERT_GE(ev.args.size(), 3u) << ev.name;
    EXPECT_EQ(ev.args[0].first, "req");
    EXPECT_EQ(ev.args[0].second.as_int(), 0);  // no request: recorder off
    EXPECT_EQ(ev.args[1].first, "a");
    EXPECT_EQ(ev.args[2].first, "b");
    if (ev.name == "sat.restart") ++restarts;
  }
  EXPECT_EQ(restarts, result.stats.restarts);
  tracer.clear();
}

/// With both sinks off, a solve records nothing anywhere.
TEST(ProgressTest, NothingRecordedWithBothSinksOff) {
  Tracer& tracer = Tracer::global();
  flight::Recorder& rec = flight::Recorder::global();
  const bool recording = rec.enabled();
  tracer.clear();
  tracer.set_enabled(false);
  rec.set_enabled(false);
  const std::uint64_t recorded = rec.total_events();
  asp::SolveResult result = asp::solve_program(pigeonhole_program());
  rec.set_enabled(recording);

  EXPECT_GT(result.stats.restarts, 0u);
  EXPECT_EQ(rec.total_events(), recorded);
  EXPECT_TRUE(tracer.events().empty());
}

TEST(TracerTest, MultithreadedSmoke) {
  Tracer tracer;
  tracer.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 100;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span span("work", "mt", tracer);
        span.attr("thread", std::int64_t{t});
        tracer.instant("tick", "mt");
      }
    });
  }
  for (std::thread& th : threads) th.join();

  std::vector<TraceEvent> events = tracer.events();
  EXPECT_EQ(events.size(), 2u * kThreads * kSpansPerThread);
  std::vector<std::uint32_t> tids;
  for (const TraceEvent& ev : events) {
    if (std::find(tids.begin(), tids.end(), ev.tid) == tids.end()) {
      tids.push_back(ev.tid);
    }
  }
  EXPECT_LE(tids.size(), static_cast<std::size_t>(kThreads + 1));

  json::Value stats = json::parse(tracer.stats_json().dump());
  EXPECT_EQ(stats.find("schema")->as_string(), "splice-stats-v1");
  EXPECT_EQ(stats.find("spans")->find("mt/work")->find("count")->as_int(),
            kThreads * kSpansPerThread);
  EXPECT_EQ(stats.find("events")->find("mt/tick")->as_int(),
            kThreads * kSpansPerThread);
}

/// The acceptance guarantee behind the Chrome export: on a real workload
/// resolution the four concretizer phases (compile, ground, solve, extract)
/// are contiguous children that account for the end-to-end "concretize"
/// span to within 10%.
TEST(PipelineTraceTest, PhaseDurationsSumToConcretizeSpan) {
  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);

  repo::Repository repo = workload::radiuss_repo();
  std::vector<spec::Spec> cache = workload::local_cache_specs(repo);
  concretize::ConcretizerOptions opts;
  opts.encoding = concretize::ReuseEncoding::Indirect;
  opts.enable_splicing = true;
  concretize::Concretizer c(repo, opts);
  for (const auto& s : cache) c.add_reusable(s);
  concretize::ConcretizeResult result =
      c.concretize(concretize::Request("visit ^mpiabi"));
  tracer.set_enabled(false);
  EXPECT_TRUE(result.used_splice());

  // Verify through the exported JSON, exactly as a trace viewer sees it.
  json::Value doc = json::parse(tracer.chrome_trace().dump());
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  double total = 0, phase_sum = 0;
  for (const json::Value& ev : events->as_array()) {
    const json::Value* cat = ev.find("cat");
    if (cat == nullptr || cat->as_string() != "concretize") continue;
    if (ev.find("ph")->as_string() != "X") continue;
    const std::string& name = ev.find("name")->as_string();
    double dur = ev.find("dur")->as_double();
    if (name == "concretize") {
      total = dur;
    } else if (name == "compile" || name == "ground" || name == "solve" ||
               name == "extract") {
      phase_sum += dur;
    }
  }
  ASSERT_GT(total, 0.0) << "no end-to-end concretize span recorded";
  ASSERT_GT(phase_sum, 0.0) << "no phase spans recorded";
  EXPECT_LE(phase_sum, total);
  EXPECT_GE(phase_sum, 0.9 * total)
      << "phases cover only " << (phase_sum / total * 100)
      << "% of the concretize span";

  // The stats export aggregates the same spans.
  json::Value stats = tracer.stats_json();
  EXPECT_EQ(stats.find("schema")->as_string(), "splice-stats-v1");
  const json::Value* spans = stats.find("spans");
  ASSERT_NE(spans, nullptr);
  for (const char* key : {"concretize/concretize", "concretize/compile",
                          "concretize/ground", "concretize/solve",
                          "concretize/extract", "asp/ground", "asp/solve"}) {
    EXPECT_NE(spans->find(key), nullptr) << "missing stats key " << key;
  }
  // And the SolveStats phases mirror the same breakdown.
  EXPECT_GT(result.stats.total_seconds(), 0.0);
  tracer.clear();
}

// Hammer one MetricsRegistry from many threads — counters, gauges,
// histogram observations, and concurrent readers of the exports — and
// require exact totals afterwards.  TSan runs this with full checking; a
// torn histogram vector or lost update fails the count/sum checks.
TEST(MetricsTest, ConcurrentObserversDoNotCorruptState) {
  MetricsRegistry m;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&m, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        m.add("mt/counter");
        m.observe("mt/hist", static_cast<double>(i % 10));
        m.set_gauge("mt/gauge", static_cast<double>(t));
        if (i % 100 == 0) {
          (void)m.metrics_text();
          (void)m.histogram("mt/hist");
          (void)m.to_json().dump();
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(m.counter("mt/counter"), kThreads * kOpsPerThread);
  MetricsRegistry::HistSummary h = m.histogram("mt/hist");
  EXPECT_EQ(h.count, static_cast<std::size_t>(kThreads * kOpsPerThread));
  EXPECT_EQ(h.min, 0.0);
  EXPECT_EQ(h.max, 9.0);
  double g = m.gauge("mt/gauge");
  EXPECT_GE(g, 0.0);
  EXPECT_LE(g, kThreads - 1);
}

// Concurrent concretize() calls through one shared Concretizer and the
// global Tracer/MetricsRegistry with tracing on — the ConcretizerPool
// configuration.  Every histogram observation must land; span events from
// different workers must interleave without corruption.
TEST(PipelineTraceTest, ConcurrentConcretizeSharedTracer) {
  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);

  repo::Repository repo = workload::radiuss_repo();
  concretize::ConcretizerOptions opts;
  opts.encoding = concretize::ReuseEncoding::Indirect;
  opts.enable_splicing = true;
  concretize::Concretizer c(repo, opts);
  c.add_reusable_all(workload::local_cache_specs(repo));

  constexpr int kThreads = 4;
  const std::vector<std::string> roots = {"caliper", "zlib", "hypre ^mpiabi",
                                          "conduit ^mpiabi"};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        concretize::ConcretizeResult r =
            c.concretize(concretize::Request(roots[t % roots.size()]));
        if (!r.spec.is_concrete()) ++failures;
      } catch (...) {
        ++failures;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  tracer.set_enabled(false);
  EXPECT_EQ(failures.load(), 0);

  // The exports must still parse and balance after concurrent writes.
  json::Value doc = json::parse(tracer.chrome_trace().dump());
  ASSERT_NE(doc.find("traceEvents"), nullptr);
  json::Value stats = json::parse(tracer.stats_json().dump());
  EXPECT_EQ(stats.find("schema")->as_string(), "splice-stats-v1");
  const json::Value* spans = stats.find("spans");
  ASSERT_NE(spans, nullptr);
  const json::Value* conc = spans->find("concretize/concretize");
  ASSERT_NE(conc, nullptr);
  EXPECT_EQ(conc->find("count")->as_int(), kThreads);
  tracer.clear();
}

}  // namespace
