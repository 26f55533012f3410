// Tests for the flight recorder: ring-buffer wraparound correctness,
// thread-safe emission under contention (run under TSan in CI), per-request
// accounting, the slow-request auto-dump fixture, span-tree derivation, the
// environment-value parsers, and the end-to-end RADIUSS acceptance
// guarantee that accounted phase durations cover the request span.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

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
using flight::Event;
using flight::EventKind;
using flight::Outcome;
using flight::Phase;
using flight::PhaseScope;
using flight::Recorder;
using flight::RecorderOptions;
using flight::RequestAccount;
using flight::RequestScope;

RecorderOptions small_opts(std::size_t capacity) {
  RecorderOptions opts;
  opts.capacity = capacity;
  return opts;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A fresh per-test dump directory under the gtest temp root.
std::filesystem::path fresh_dump_dir(const std::string& name) {
  std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / ("flight_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(FlightEventTest, DetailIsTruncatedAndNulTerminated) {
  Recorder rec(small_opts(16));
  rec.emit(EventKind::Mark, 1, 2,
           "a-very-long-detail-string-that-cannot-possibly-fit");
  std::vector<Event> events = rec.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_LT(events[0].detail_view().size(), sizeof(events[0].detail));
  EXPECT_EQ(events[0].detail_view().substr(0, 10), "a-very-lon");
  EXPECT_EQ(events[0].a, 1);
  EXPECT_EQ(events[0].b, 2);
  json::Value j = events[0].to_json();
  EXPECT_EQ(j.find("kind")->as_string(), "mark");
  EXPECT_EQ(j.find("detail")->as_string(), events[0].detail_view());
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(Recorder(small_opts(20)).capacity(), 32u);
  EXPECT_EQ(Recorder(small_opts(1)).capacity(), 1u);
  EXPECT_EQ(Recorder(small_opts(1024)).capacity(), 1024u);
  RecorderOptions zero = small_opts(0);  // degenerate: clamped to one slot
  EXPECT_EQ(Recorder(zero).capacity(), 1u);
}

TEST(FlightRecorderTest, WraparoundKeepsNewestWindowInOrder) {
  Recorder rec(small_opts(8));
  const std::uint64_t kTotal = 20;
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    rec.emit(EventKind::Mark, static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(rec.total_events(), kTotal);
  std::vector<Event> events = rec.events();
  ASSERT_EQ(events.size(), 8u);
  // The snapshot is the newest window, oldest first, with contiguous
  // sequence numbers; payloads must match their slots (no torn overwrite).
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, kTotal - 8 + i);
    EXPECT_EQ(events[i].a, static_cast<std::int64_t>(events[i].seq));
  }
  json::Value dump = rec.dump_json("manual");
  EXPECT_EQ(dump.find("total_events")->as_int(),
            static_cast<std::int64_t>(kTotal));
  EXPECT_EQ(dump.find("dropped_events")->as_int(),
            static_cast<std::int64_t>(kTotal - 8));
}

TEST(FlightRecorderTest, DisabledRecorderRecordsNothing) {
  Recorder rec(small_opts(16));
  rec.set_enabled(false);
  rec.emit(EventKind::Mark);
  EXPECT_EQ(rec.begin_request("invisible"), 0u);
  {
    RequestScope scope("also invisible", rec);
    EXPECT_EQ(scope.id(), 0u);
    PhaseScope phase(Phase::Solve, "solve", "test", rec);
  }
  EXPECT_EQ(rec.total_events(), 0u);
  EXPECT_TRUE(rec.requests().empty());
}

TEST(FlightRecorderTest, RequestAccountingAndThreadBinding) {
  Recorder rec(small_opts(64));
  std::uint32_t id = 0;
  {
    RequestScope scope("visit ^mpiabi", rec);
    id = scope.id();
    ASSERT_NE(id, 0u);
    EXPECT_EQ(rec.current_request(), id);
    {
      PhaseScope ground(Phase::Ground, "ground", "test", rec);
      rec.emit(EventKind::GroundDone, 100, 50, {}, Phase::Ground);
    }
    flight::Rollup roll;
    roll.conflicts = 7;
    roll.ground_atoms = 100;
    rec.add_rollup(id, roll);
    rec.add_solution(id, 1, 5, 2);
  }
  EXPECT_EQ(rec.current_request(), 0u);  // binding restored at scope exit

  std::optional<RequestAccount> acc = rec.request(id);
  ASSERT_TRUE(acc.has_value());
  EXPECT_EQ(acc->text, "visit ^mpiabi");
  EXPECT_EQ(acc->outcome, Outcome::Ok);
  EXPECT_GT(acc->seconds(), 0.0);
  EXPECT_GT(acc->phase_seconds[static_cast<std::size_t>(Phase::Ground)], 0.0);
  EXPECT_GT(acc->phase_sum_seconds(), 0.0);
  EXPECT_EQ(acc->rollup.conflicts, 7u);
  EXPECT_EQ(acc->rollup.ground_atoms, 100u);
  EXPECT_EQ(acc->builds, 1u);
  EXPECT_EQ(acc->reused, 5u);
  EXPECT_EQ(acc->splices, 2u);
  EXPECT_FALSE(acc->slow);

  // All emitted events were attributed to the request.
  for (const Event& ev : rec.events()) EXPECT_EQ(ev.request, id);
}

TEST(FlightRecorderTest, ThreadIdMatchesTracerInBothSinks) {
  trace::Tracer tracer;
  tracer.set_enabled(true);
  Recorder rec(small_opts(64));
  // The main thread reaches the recorder first, so separate per-sink
  // counters would number the worker differently in the two exports.
  rec.emit(EventKind::Mark);
  std::thread([&] {
    rec.emit(EventKind::Mark);
    trace::Span span("worker", "test", tracer);
  }).join();
  { trace::Span span("main", "test", tracer); }

  std::vector<Event> events = rec.events();
  std::vector<trace::TraceEvent> spans = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  ASSERT_EQ(spans.size(), 2u);
  ASSERT_EQ(spans[0].name, "worker");
  EXPECT_EQ(events[0].tid, spans[1].tid);  // main thread
  EXPECT_EQ(events[1].tid, spans[0].tid);  // worker thread
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST(FlightRecorderTest, NestedScopesRestorePreviousBinding) {
  Recorder rec(small_opts(64));
  RequestScope outer("outer", rec);
  {
    RequestScope inner("inner", rec);
    EXPECT_EQ(rec.current_request(), inner.id());
  }
  EXPECT_EQ(rec.current_request(), outer.id());
}

TEST(FlightRecorderTest, ExceptionUnwindRecordsErrorOutcome) {
  Recorder rec(small_opts(64));
  std::uint32_t id = 0;
  try {
    RequestScope scope("doomed", rec);
    id = scope.id();
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  std::optional<RequestAccount> acc = rec.request(id);
  ASSERT_TRUE(acc.has_value());
  EXPECT_EQ(acc->outcome, Outcome::Error);
}

TEST(FlightRecorderTest, ExplicitFinishWinsOverDestructor) {
  Recorder rec(small_opts(64));
  std::uint32_t id = 0;
  {
    RequestScope scope("unsat request", rec);
    id = scope.id();
    scope.finish(Outcome::Unsat, "no version of mpich satisfies @99");
    scope.finish(Outcome::Ok);  // idempotent: first finish wins
  }
  std::optional<RequestAccount> acc = rec.request(id);
  ASSERT_TRUE(acc.has_value());
  EXPECT_EQ(acc->outcome, Outcome::Unsat);
  EXPECT_EQ(acc->note, "no version of mpich satisfies @99");
}

TEST(FlightRecorderTest, OldestFinishedAccountsAreEvicted) {
  RecorderOptions opts = small_opts(64);
  opts.max_requests = 2;
  Recorder rec(opts);
  std::uint32_t first = 0;
  for (int i = 0; i < 3; ++i) {
    RequestScope scope("request " + std::to_string(i), rec);
    if (i == 0) first = scope.id();
  }
  std::vector<RequestAccount> all = rec.requests();
  EXPECT_EQ(all.size(), 2u);
  EXPECT_FALSE(rec.request(first).has_value());
}

/// The contention test CI runs under TSan: concurrent writers, each with
/// its own request scope, hammering one ring.  Correctness bar: no data
/// race, exact total, unique in-order sequence numbers in the snapshot,
/// and every account finished.
TEST(FlightRecorderTest, ConcurrentWritersAreRaceFreeAndLoseNothing) {
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 2000;
  Recorder rec(small_opts(1024));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      RequestScope scope("writer " + std::to_string(t), rec);
      for (int i = 0; i < kEventsPerThread; ++i) {
        PhaseScope phase(Phase::Solve, "solve", "test", rec);
        rec.emit(EventKind::SatConflicts, i, t, "tick", Phase::Solve);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Each loop iteration emits PhaseBegin + SatConflicts + PhaseEnd, and each
  // scope adds RequestBegin/RequestEnd.
  const std::uint64_t expected =
      kThreads * (3u * kEventsPerThread + 2u);
  EXPECT_EQ(rec.total_events(), expected);
  std::vector<Event> events = rec.events();
  ASSERT_EQ(events.size(), rec.capacity());
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
  std::vector<RequestAccount> accounts = rec.requests();
  ASSERT_EQ(accounts.size(), static_cast<std::size_t>(kThreads));
  for (const RequestAccount& acc : accounts) {
    EXPECT_EQ(acc.outcome, Outcome::Ok);
    EXPECT_GT(acc.phase_seconds[static_cast<std::size_t>(Phase::Solve)], 0.0);
  }
}

/// The golden slow-request fixture: a request crossing the latency
/// threshold auto-dumps a `splice-flight-v1` document whose structure is
/// pinned here field by field (timings vary run to run; shape must not).
TEST(FlightDumpTest, SlowRequestAutoDumpMatchesGoldenShape) {
  std::filesystem::path dir = fresh_dump_dir("slow_golden");
  RecorderOptions opts = small_opts(256);
  opts.slow_ms = 1e-6;  // everything is slow
  opts.dump_dir = dir.string();
  Recorder rec(opts);
  std::uint32_t id = 0;
  {
    RequestScope scope("laghos ^mpiabi", rec);
    id = scope.id();
    PhaseScope solve(Phase::Solve, "solve", "test", rec);
    rec.emit(EventKind::SatRestart, 42, 0, {}, Phase::Solve);
  }
  ASSERT_TRUE(rec.request(id).has_value());
  EXPECT_TRUE(rec.request(id)->slow);

  std::filesystem::path expected =
      dir / ("flight-slow-" + std::to_string(id) + "-laghos--mpiabi.json");
  ASSERT_TRUE(std::filesystem::exists(expected))
      << "auto-dump not written to " << expected;

  json::Value doc = json::parse(read_file(expected));
  EXPECT_EQ(doc.find("schema")->as_string(), "splice-flight-v1");
  EXPECT_EQ(doc.find("reason")->as_string(), "slow");
  EXPECT_EQ(doc.find("capacity")->as_int(), 256);
  ASSERT_NE(doc.find("total_events"), nullptr);
  ASSERT_NE(doc.find("dropped_events"), nullptr);
  EXPECT_DOUBLE_EQ(doc.find("slow_ms")->as_double(), 1e-6);

  const json::Value* requests = doc.find("requests");
  ASSERT_NE(requests, nullptr);
  ASSERT_EQ(requests->as_array().size(), 1u);
  const json::Value& req = requests->as_array()[0];
  EXPECT_EQ(req.find("id")->as_int(), static_cast<std::int64_t>(id));
  EXPECT_EQ(req.find("request")->as_string(), "laghos ^mpiabi");
  EXPECT_EQ(req.find("outcome")->as_string(), "ok");
  EXPECT_TRUE(req.find("slow")->as_bool());
  ASSERT_NE(req.find("phases"), nullptr);
  EXPECT_NE(req.find("phases")->find("solve"), nullptr);
  ASSERT_NE(req.find("stats"), nullptr);
  EXPECT_NE(req.find("stats")->find("conflicts"), nullptr);
  const json::Value* spans = req.find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->as_array().size(), 1u);
  EXPECT_EQ(spans->as_array()[0].find("name")->as_string(), "solve");

  const json::Value* events = doc.find("events");
  ASSERT_NE(events, nullptr);
  // request.begin, phase.begin, sat.restart, phase.end, request.end.
  ASSERT_EQ(events->as_array().size(), 5u);
  EXPECT_EQ(events->as_array()[2].find("kind")->as_string(), "sat.restart");
  EXPECT_EQ(events->as_array()[2].find("a")->as_int(), 42);
}

TEST(FlightDumpTest, SpanTreeNestsPhasesPerThread) {
  Recorder rec(small_opts(64));
  std::uint32_t id = 0;
  {
    RequestScope scope("nested phases", rec);
    id = scope.id();
    PhaseScope ground(Phase::Ground, "ground", "test", rec);
    { PhaseScope solve(Phase::Solve, "solve", "test", rec); }
  }
  json::Value doc = rec.dump_request_json(id, "manual");
  const json::Value* spans = doc.find("requests")->as_array()[0].find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->as_array().size(), 1u);
  const json::Value& root = spans->as_array()[0];
  EXPECT_EQ(root.find("name")->as_string(), "ground");
  const json::Value* children = root.find("children");
  ASSERT_NE(children, nullptr);
  ASSERT_EQ(children->as_array().size(), 1u);
  EXPECT_EQ(children->as_array()[0].find("name")->as_string(), "solve");
  EXPECT_GE(root.find("dur_us")->as_double(),
            children->as_array()[0].find("dur_us")->as_double());
}

/// One phase scope, one clock: the trace span, the PhaseBegin/PhaseEnd
/// events and the account's phase seconds all carry the same interval.
TEST(FlightPhaseScopeTest, OneTimerFeedsSpanAndAccount) {
  trace::Tracer tracer;
  tracer.set_enabled(true);
  Recorder rec(small_opts(64));
  std::uint32_t id = 0;
  double seconds = 0;
  {
    RequestScope scope("one timer", rec);
    id = scope.id();
    PhaseScope phase(Phase::Ground, "ground", "test", rec, tracer);
    phase.attr("rules", 7);
    seconds = phase.end();
    EXPECT_EQ(phase.end(), seconds);  // idempotent
  }
  std::vector<trace::TraceEvent> spans = tracer.events();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "ground");
  EXPECT_EQ(spans[0].category, "test");
  ASSERT_EQ(spans[0].args.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0].dur_us * 1e-6, seconds);
  ASSERT_TRUE(rec.request(id).has_value());
  EXPECT_EQ(rec.request(id)->phase_seconds[static_cast<std::size_t>(
                Phase::Ground)],
            seconds);
  std::vector<Event> events = rec.events();
  ASSERT_EQ(events.size(), 4u);  // request begin, phase begin/end, request end
  EXPECT_EQ(events[1].kind, EventKind::PhaseBegin);
  EXPECT_EQ(events[2].kind, EventKind::PhaseEnd);
  EXPECT_NEAR(static_cast<double>(events[2].t_us - events[1].t_us),
              seconds * 1e6, 1.0);
}

TEST(FlightPhaseScopeTest, EachSinkRecordsWithoutTheOther) {
  {
    trace::Tracer tracer;  // disabled
    Recorder rec(small_opts(64));
    RequestScope scope("flight only", rec);
    PhaseScope phase(Phase::Solve, "solve", "test", rec, tracer);
    double seconds = phase.end();
    EXPECT_TRUE(tracer.events().empty());
    EXPECT_EQ(rec.request(scope.id())
                  ->phase_seconds[static_cast<std::size_t>(Phase::Solve)],
              seconds);
  }
  {
    trace::Tracer tracer;
    tracer.set_enabled(true);
    Recorder rec(small_opts(64));
    rec.set_enabled(false);
    PhaseScope phase(Phase::Solve, "solve", "test", rec, tracer);
    double seconds = phase.end();
    ASSERT_EQ(tracer.events().size(), 1u);
    EXPECT_DOUBLE_EQ(tracer.events()[0].dur_us * 1e-6, seconds);
    EXPECT_EQ(rec.total_events(), 0u);
  }
  {
    trace::Tracer tracer;
    Recorder rec(small_opts(64));
    rec.set_enabled(false);
    PhaseScope phase(Phase::Solve, "solve", "test", rec, tracer);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_GE(phase.end(), 0.002);  // both sinks off: still a timer
    EXPECT_TRUE(tracer.events().empty());
    EXPECT_EQ(rec.total_events(), 0u);
  }
}

TEST(FlightDumpTest, SpanTreeToleratesWraparoundOrphans) {
  // PhaseEnd whose PhaseBegin was overwritten by the ring must be dropped,
  // not crash or produce a phantom span.
  std::vector<Event> events;
  Event end;
  end.seq = 10;
  end.t_us = 50;
  end.request = 1;
  end.kind = EventKind::PhaseEnd;
  end.phase = Phase::Solve;
  events.push_back(end);
  json::Value tree = flight::span_tree(events, 1);
  EXPECT_TRUE(tree.as_array().empty());
}

/// env_count / env_number reading `var` set to `value` (nullptr: unset).
std::uint64_t count_of(const char* var, const char* value,
                       std::uint64_t fallback,
                       std::uint64_t max = UINT64_MAX) {
  testing_env::ScopedEnv env(var, value);
  return env_count(var, fallback, max);
}

double number_of(const char* var, const char* value, double fallback) {
  testing_env::ScopedEnv env(var, value);
  return env_number(var, fallback);
}

TEST(FlightEnvTest, MalformedValuesWarnOnceAndFallBack) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(count_of("SPLICE_FLIGHT_CAPACITY", "12abc", 5u), 5u);
  std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("SPLICE_FLIGHT_CAPACITY"), std::string::npos);
  EXPECT_NE(err.find("12abc"), std::string::npos);
  EXPECT_NE(err.find("warning"), std::string::npos);

  testing::internal::CaptureStderr();
  EXPECT_DOUBLE_EQ(
      number_of("SPLICE_FLIGHT_SLOW_MS", "fast", 2.5), 2.5);
  err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("SPLICE_FLIGHT_SLOW_MS"), std::string::npos);
  EXPECT_NE(err.find("fast"), std::string::npos);

  testing::internal::CaptureStderr();
  EXPECT_EQ(count_of("SPLICE_FLIGHT_CAPACITY", "", 7u), 7u);
  EXPECT_FALSE(testing::internal::GetCapturedStderr().empty())
      << "an empty value must warn, not vanish";
}

TEST(FlightEnvTest, SignedAndOutOfRangeValuesFallBack) {
  // These calls only parse the value; nothing is allocated.
  testing::internal::CaptureStderr();
  EXPECT_EQ(count_of("SPLICE_FLIGHT_CAPACITY", "-1", 5u), 5u);
  EXPECT_EQ(count_of("SPLICE_FLIGHT_CAPACITY", " 64", 5u), 5u);
  EXPECT_EQ(count_of("SPLICE_FLIGHT_CAPACITY",
                            "18446744073709551616", 5u),
            5u);
  EXPECT_DOUBLE_EQ(number_of("SPLICE_FLIGHT_SLOW_MS", "-3", 2), 2);
  EXPECT_DOUBLE_EQ(number_of("SPLICE_FLIGHT_SLOW_MS", "inf", 2), 2);
  std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("SPLICE_FLIGHT_CAPACITY=\"-1\""), std::string::npos);
  EXPECT_NE(err.find("SPLICE_FLIGHT_SLOW_MS=\"inf\""), std::string::npos);
}

TEST(FlightEnvTest, CapacityAboveCeilingFallsBack) {
  // Parsing only: the ceiling is checked before anything is allocated.
  const std::string ceiling = std::to_string(flight::kMaxCapacity);
  const std::string above = std::to_string(flight::kMaxCapacity + 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(count_of("SPLICE_FLIGHT_CAPACITY", ceiling.c_str(), 5u,
                            flight::kMaxCapacity),
            flight::kMaxCapacity);
  EXPECT_TRUE(testing::internal::GetCapturedStderr().empty());
  testing::internal::CaptureStderr();
  EXPECT_EQ(count_of("SPLICE_FLIGHT_CAPACITY", above.c_str(), 5u,
                            flight::kMaxCapacity),
            5u);
  EXPECT_EQ(count_of("SPLICE_FLIGHT_CAPACITY", "1000000000", 5u,
                            flight::kMaxCapacity),
            5u);
  std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("SPLICE_FLIGHT_CAPACITY=\"" + above + "\""),
            std::string::npos);
  EXPECT_NE(err.find("at most " + ceiling), std::string::npos);
}

TEST(FlightEnvTest, ValidAndUnsetValuesParseSilently) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(count_of("SPLICE_FLIGHT_CAPACITY", "4096", 5u), 4096u);
  EXPECT_DOUBLE_EQ(
      number_of("SPLICE_FLIGHT_SLOW_MS", "250.5", 0), 250.5);
  EXPECT_EQ(count_of("SPLICE_FLIGHT_CAPACITY", nullptr, 5u), 5u);
  EXPECT_DOUBLE_EQ(number_of("SPLICE_FLIGHT_SLOW_MS", nullptr, 3), 3);
  EXPECT_TRUE(testing::internal::GetCapturedStderr().empty());
}

/// The acceptance guarantee: a real RADIUSS concretization recorded by the
/// global recorder produces an account whose phase durations sum to within
/// 10% of the end-to-end request span, and whose dump round-trips.
TEST(FlightPipelineTest, RadiussConcretizationRoundTrips) {
  Recorder& rec = Recorder::global();
  RecorderOptions saved = rec.options();
  rec.configure(RecorderOptions{});

  repo::Repository repo = workload::radiuss_repo();
  std::vector<spec::Spec> cache = workload::local_cache_specs(repo);
  concretize::ConcretizerOptions copts;
  copts.encoding = concretize::ReuseEncoding::Indirect;
  copts.enable_splicing = true;
  concretize::Concretizer c(repo, copts);
  for (const auto& s : cache) c.add_reusable(s);
  concretize::ConcretizeResult result =
      c.concretize(concretize::Request("visit ^mpiabi"));
  EXPECT_TRUE(result.used_splice());

  std::vector<RequestAccount> accounts = rec.requests();
  ASSERT_EQ(accounts.size(), 1u);
  const RequestAccount& acc = accounts[0];
  EXPECT_EQ(acc.text, "visit ^mpiabi");
  EXPECT_EQ(acc.outcome, Outcome::Ok);
  EXPECT_GT(acc.rollup.ground_atoms, 0u);
  EXPECT_GT(acc.rollup.sat_clauses, 0u);
  EXPECT_GT(acc.rollup.decisions, 0u);
  EXPECT_GT(acc.builds + acc.reused, 0u);
  EXPECT_GE(acc.splices, 1u);

  double total = acc.seconds();
  double phases = acc.phase_sum_seconds();
  ASSERT_GT(total, 0.0);
  ASSERT_GT(phases, 0.0);
  EXPECT_LE(phases, total);
  EXPECT_GE(phases, 0.9 * total)
      << "phases cover only " << (phases / total * 100)
      << "% of the request span";

  // The dump of that request round-trips through the parser with the same
  // accounting and a non-empty event slice + span tree.
  json::Value doc =
      json::parse(rec.dump_request_json(acc.id, "manual").dump());
  EXPECT_EQ(doc.find("schema")->as_string(), "splice-flight-v1");
  const json::Value& req = doc.find("requests")->as_array()[0];
  EXPECT_EQ(req.find("request")->as_string(), "visit ^mpiabi");
  EXPECT_EQ(req.find("splices")->as_int(),
            static_cast<std::int64_t>(acc.splices));
  double json_phases = 0;
  for (const auto& [name, secs] : req.find("phases")->as_object()) {
    (void)name;
    json_phases += secs.as_double();
  }
  EXPECT_NEAR(json_phases, phases, 1e-9);
  EXPECT_FALSE(req.find("spans")->as_array().empty());
  EXPECT_FALSE(doc.find("events")->as_array().empty());
  bool saw_splice_verdict = false;
  for (const json::Value& ev : doc.find("events")->as_array()) {
    if (ev.find("kind")->as_string() == "splice.verdict") {
      saw_splice_verdict = true;
    }
  }
  EXPECT_TRUE(saw_splice_verdict);

  rec.configure(saved);  // restore whatever the environment set up
  trace::Tracer::global().metrics().clear();
}

/// A cold request pays for its slice (prune, base compile, base ground)
/// inside its compile phase, so its phases cover the call's wall time: the
/// account and the caller's clock agree to within 1%.
TEST(FlightPipelineTest, ColdRequestPhasesCoverItsWallTime) {
  Recorder& rec = Recorder::global();
  RecorderOptions saved = rec.options();
  rec.configure(RecorderOptions{});

  repo::Repository repo = workload::radiuss_repo();
  concretize::ConcretizerOptions copts;
  copts.enable_splicing = true;
  concretize::Concretizer c(repo, copts);
  c.add_reusable_all(workload::local_cache_specs(repo));
  concretize::Request request("visit ^mpiabi");
  auto t0 = std::chrono::steady_clock::now();
  c.concretize(request);
  double wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  EXPECT_EQ(c.compile_cache_builds(), 1u);

  std::vector<RequestAccount> accounts = rec.requests();
  ASSERT_EQ(accounts.size(), 1u);
  double phases = accounts[0].phase_sum_seconds();
  EXPECT_LE(phases, wall);
  EXPECT_GE(phases, 0.99 * wall)
      << "phases cover only " << (phases / wall * 100)
      << "% of the cold request's wall time";

  rec.configure(saved);
  trace::Tracer::global().metrics().clear();
}

/// profile() and explain_splice() run the same instrumented pass as
/// concretize(): one account each, with compile/ground/solve phases that
/// the request span covers.
TEST(FlightPipelineTest, ProfileAndExplainAccountTheirPhases) {
  Recorder& rec = Recorder::global();
  RecorderOptions saved = rec.options();
  rec.configure(RecorderOptions{});

  repo::Repository repo = workload::radiuss_repo();
  concretize::ConcretizerOptions copts;
  copts.enable_splicing = true;
  concretize::Concretizer c(repo, copts);
  c.add_reusable_all(workload::local_cache_specs(repo));
  std::vector<concretize::Request> requests{
      concretize::Request("visit ^mpiabi")};
  EXPECT_TRUE(c.profile(requests).sat);
  EXPECT_TRUE(c.explain_splice(requests).sat);

  std::vector<RequestAccount> accounts = rec.requests();
  ASSERT_EQ(accounts.size(), 2u);
  EXPECT_EQ(accounts[0].text, "profile: visit ^mpiabi");
  EXPECT_EQ(accounts[1].text, "explain splice: visit ^mpiabi");
  for (const RequestAccount& acc : accounts) {
    EXPECT_EQ(acc.outcome, Outcome::Ok) << acc.text;
    for (Phase p : {Phase::Compile, Phase::Ground, Phase::Solve}) {
      EXPECT_GT(acc.phase_seconds[static_cast<std::size_t>(p)], 0.0)
          << acc.text << " " << flight::phase_name(p);
    }
    EXPECT_LE(acc.phase_sum_seconds(), acc.seconds()) << acc.text;
    EXPECT_GT(acc.rollup.ground_atoms, 0u) << acc.text;
  }

  rec.configure(saved);
  trace::Tracer::global().metrics().clear();
}

}  // namespace
