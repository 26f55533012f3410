// Always-on flight recorder: post-hoc forensics for the concretization
// pipeline.
//
// The Tracer (trace.hpp) answers "what happened?" only when it was enabled
// *before* the interesting request ran — useless for the one pathological
// request in a batch of ten thousand.  The flight recorder closes that gap:
//
//   * Recorder — a fixed-capacity, thread-safe ring buffer of compact POD
//     events (request begin/end, phase transitions, CDCL progress
//     snapshots, splice verdicts, install/rewire steps).  It is ON by
//     default in every binary linking splice_support; old events are
//     overwritten, so memory is bounded and the last window of activity is
//     always reconstructible.
//   * Per-request accounting — RequestScope gives each concretization (or
//     audit group, or explain probe) a stable numeric id; phase durations,
//     solver stat rollups and the outcome accumulate into a bounded table
//     of RequestAccounts.
//   * Slow-request log — a request whose latency or conflict count crosses
//     a configurable threshold automatically dumps its account, its event
//     slice and the derived span tree as a `splice-flight-v1` JSON file.
//   * Watchdog / abnormal-exit dumps — an optional watchdog thread dumps
//     the ring when a request overstays its budget; fatal-signal and
//     at-exit hooks flush it to disk so crashes and hangs are diagnosable
//     after the fact.
//
// Overhead contract: with recording enabled at default capacity the
// aggregate cost on bench_asp_core stays ≤2% versus the recorder compiled
// out (-DSPLICE_FLIGHT=OFF defines SPLICE_FLIGHT_DISABLED and every hook
// below collapses to nothing); see bench_logs/FLIGHT_OVERHEAD.md.
//
// Environment hooks (any binary linking splice_support):
//   SPLICE_FLIGHT=off|0|false        disable recording at startup
//   SPLICE_FLIGHT_CAPACITY=<n>       ring capacity (default 16384, max 2^20)
//   SPLICE_FLIGHT_SLOW_MS=<n>        slow-request latency threshold
//   SPLICE_FLIGHT_SLOW_CONFLICTS=<n> slow-request conflict threshold
//   SPLICE_FLIGHT_DIR=<dir>          where automatic dumps are written
//   SPLICE_FLIGHT_EXIT=<file>        dump the full ring at process exit
//   SPLICE_FLIGHT_CRASH=<file>       dump on SIGSEGV/SIGBUS/SIGABRT/...
//   SPLICE_FLIGHT_WATCHDOG_MS=<n>    dump requests still active after n ms
// Each is read once, by the splice::env_* readers (strings.hpp): numbers
// parse strictly, and a malformed, out-of-range or blank value warns once on
// stderr and falls back to the default; it is never silently dropped.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/support/json.hpp"
#include "src/support/trace.hpp"

namespace splice::flight {

/// What an event records: the one event taxonomy.  kind_name() is the one
/// name table; a ring dump and the tracer's instants both use it.
enum class EventKind : std::uint8_t {
  RequestBegin,
  RequestEnd,
  PhaseBegin,
  PhaseEnd,
  SatRestart,     ///< CDCL restart (a = cumulative conflicts)
  SatConflicts,   ///< conflict batch tick (a = cumulative conflicts)
  ModelFound,     ///< candidate stable model (a = models, b = conflicts)
  LoopNogood,     ///< unfounded-set refutation (a = cumulative conflicts)
  BoundImproved,  ///< optimization bound improved (a = cost, b = priority)
  LevelDone,      ///< #minimize level finished (a = cost, b = priority)
  GroundDone,     ///< grounding finished (a = possible atoms, b = rules)
  SpliceVerdict,  ///< executed splice (detail = "parent->replacement")
  InstallStep,    ///< binary written (a = bytes, detail = package)
  RewireStep,     ///< binary rewired (a = bytes, detail = package)
  Mark,           ///< free-form point annotation
};

std::string_view kind_name(EventKind k);

/// Pipeline phase an event (or an accounted duration) belongs to.
enum class Phase : std::uint8_t {
  None,
  Compile,
  Ground,
  Solve,
  Extract,
  Explain,
  Audit,
  Install,
};

inline constexpr std::size_t kNumPhases = 8;

std::string_view phase_name(Phase p);

/// How a request ended.  Budget = the solver gave up after its model budget
/// (unsat-after-budget); Error covers thrown exceptions.
enum class Outcome : std::uint8_t { Active, Ok, Unsat, Error, Budget };

std::string_view outcome_name(Outcome o);

/// One ring slot: a compact, trivially-copyable record.  64 bytes.
struct Event {
  std::uint64_t seq = 0;   ///< global sequence number (monotonic, never wraps)
  std::uint64_t t_us = 0;  ///< microseconds since the recorder's epoch
  std::int64_t a = 0;      ///< kind-specific payload (see EventKind)
  std::int64_t b = 0;      ///< kind-specific payload
  std::uint32_t request = 0;  ///< owning request id; 0 = unattributed
  EventKind kind = EventKind::Mark;
  Phase phase = Phase::None;
  std::uint16_t tid = 0;   ///< trace::Tracer::thread_id(), low 16 bits
  char detail[24] = {};    ///< NUL-terminated, truncated label

  std::string_view detail_view() const {
    return {detail, ::strnlen(detail, sizeof(detail))};
  }
  json::Value to_json() const;
};

static_assert(std::is_trivially_copyable_v<Event>, "ring slots must be PODs");
static_assert(sizeof(Event) == 64, "keep the ring slot cache-line sized");

/// Numeric per-request rollups pushed by the pipeline (plain numbers so the
/// support layer stays below src/asp in the dependency order).
struct Rollup {
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t restarts = 0;
  std::uint64_t models = 0;
  std::uint64_t loop_nogoods = 0;
  std::uint64_t ground_rules = 0;
  std::uint64_t ground_atoms = 0;
  std::uint64_t sat_vars = 0;
  std::uint64_t sat_clauses = 0;
};

/// The per-request accounting record.
struct RequestAccount {
  std::uint32_t id = 0;
  std::string text;        ///< the request, in user language
  double begin_us = 0;
  double end_us = 0;       ///< 0 while the request is active
  Outcome outcome = Outcome::Active;
  std::string note;        ///< outcome detail (error message, unsat reason)
  std::array<double, kNumPhases> phase_seconds{};
  Rollup rollup;
  std::uint64_t builds = 0;
  std::uint64_t reused = 0;
  std::uint64_t splices = 0;
  bool slow = false;       ///< crossed a slow-request threshold

  double seconds() const {
    return end_us > begin_us ? (end_us - begin_us) * 1e-6 : 0;
  }
  /// Sum of the accounted per-phase durations.
  double phase_sum_seconds() const;
  json::Value to_json() const;
};

/// The ring's ceiling: 2^20 64-byte events (64 MiB).
inline constexpr std::size_t kMaxCapacity = std::size_t{1} << 20;

struct RecorderOptions {
  /// Ring capacity in events; a power of two, at most kMaxCapacity.
  std::size_t capacity = 16384;
  /// Finished request accounts retained (oldest dropped first).
  std::size_t max_requests = 256;
  /// >0: requests at least this slow auto-dump their slice on end_request.
  double slow_ms = 0;
  /// >0: requests with at least this many conflicts auto-dump too.
  std::uint64_t slow_conflicts = 0;
  /// Directory automatic dumps are written to.
  std::string dump_dir = ".";
  /// Also auto-dump requests ending in Error/Budget outcomes.
  bool dump_abnormal = false;
  bool enabled = true;
};

/// The process-wide ring buffer + request table.  All pipeline hooks record
/// into `Recorder::global()`; tests construct private instances.
class Recorder {
 public:
  explicit Recorder(RecorderOptions opts = {});

  /// The singleton.  First access honours the SPLICE_FLIGHT_* environment
  /// hooks (capacity, thresholds, exit/crash/watchdog dumps).
  static Recorder& global();

  bool enabled() const {
#if defined(SPLICE_FLIGHT_DISABLED)
    return false;
#else
    return enabled_.load(std::memory_order_relaxed);
#endif
  }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  const RecorderOptions& options() const { return opts_; }
  /// Replace the configuration; drops all recorded events and accounts.
  void configure(RecorderOptions opts);

  /// Microseconds since this recorder's epoch.
  double now_us() const;

  // -- request lifecycle (prefer RequestScope) ------------------------------

  /// Open a request account; returns its stable id (0 when disabled).
  std::uint32_t begin_request(std::string_view text);
  /// Close a request: records the outcome, rolls it into the global metrics
  /// and applies the slow-request policy (threshold check, automatic dump).
  void end_request(std::uint32_t id, Outcome outcome,
                   std::string_view note = {});
  void add_rollup(std::uint32_t id, const Rollup& r);
  void add_solution(std::uint32_t id, std::uint64_t builds,
                    std::uint64_t reused, std::uint64_t splices);
  void add_phase_seconds(std::uint32_t id, Phase p, double seconds);

  // -- event emission -------------------------------------------------------

  /// Report one point event, the one call every pipeline tap makes.  The
  /// ring gets it, attributed to the calling thread's current request (see
  /// RequestScope), when recording is on; the global tracer gets it as an
  /// instant named kind_name(kind) in category phase_name(phase), args
  /// {req, a, b[, detail]}, when tracing is on.  Either sink may be off (the
  /// ring compiles away under SPLICE_FLIGHT_DISABLED); with both off an
  /// emit costs two relaxed atomic loads.
  void emit(EventKind kind, std::int64_t a = 0, std::int64_t b = 0,
            std::string_view detail = {}, Phase phase = Phase::None) {
    if (enabled()) do_emit(kind, a, b, detail, phase);
    if (trace::Tracer::global().enabled()) mirror(kind, a, b, detail, phase);
  }

  /// The calling thread's current request id on this recorder (0 if none).
  std::uint32_t current_request() const;

  // -- introspection --------------------------------------------------------

  std::uint64_t total_events() const;  ///< ever emitted (ring may have less)
  std::size_t capacity() const { return ring_.size(); }
  /// Ring snapshot, oldest event first.
  std::vector<Event> events() const;
  /// Account snapshot, oldest first (active requests included).
  std::vector<RequestAccount> requests() const;
  std::optional<RequestAccount> request(std::uint32_t id) const;

  // -- dumps (`splice-flight-v1`) -------------------------------------------

  /// Whole-ring dump: every retained account + the full event window.
  json::Value dump_json(std::string_view reason) const;
  /// Single-request dump: that account, its event slice and span tree.
  json::Value dump_request_json(std::uint32_t id,
                                std::string_view reason) const;
  bool write_dump(const std::string& path, std::string_view reason) const;

  /// Start a daemon watchdog: any request still active after `ms`
  /// milliseconds triggers one whole-ring dump into options().dump_dir.
  void start_watchdog(double ms);

  /// Install fatal-signal handlers (SEGV/BUS/FPE/ILL/ABRT) on the global
  /// recorder that flush the ring to `path` before re-raising.
  static void install_crash_handler(std::string path);

  /// Drop all events and accounts (not the configuration).
  void clear();

 private:
  friend class RequestScope;
  friend class PhaseScope;

  void do_emit(EventKind kind, std::int64_t a, std::int64_t b,
               std::string_view detail, Phase phase,
               std::chrono::steady_clock::time_point at =
                   std::chrono::steady_clock::now());
  void mirror(EventKind kind, std::int64_t a, std::int64_t b,
              std::string_view detail, Phase phase) const;
  void push_locked(Event ev);
  std::vector<Event> events_locked() const;
  RequestAccount* find_locked(std::uint32_t id);
  /// Dump-file path for an automatic dump; "" when dumping is off.
  std::string auto_dump_path(const RequestAccount& acc,
                             std::string_view stem) const;

  RecorderOptions opts_;
  std::atomic<bool> enabled_{true};
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::vector<Event> ring_;       ///< capacity slots, seq % capacity
  std::uint64_t next_seq_ = 0;    ///< total events ever emitted
  std::uint32_t next_request_ = 1;
  std::map<std::uint32_t, RequestAccount> accounts_;
  std::deque<std::uint32_t> account_order_;
  std::atomic<bool> watchdog_running_{false};
};

/// RAII request account: begins on construction, binds the calling thread's
/// subsequent emissions to the request, and finishes at scope exit — with
/// Outcome::Error when unwinding an exception, Outcome::Ok otherwise.
/// finish() overrides the outcome explicitly (idempotent).
class RequestScope {
 public:
  explicit RequestScope(std::string_view text,
                        Recorder& recorder = Recorder::global());
  ~RequestScope();

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  void finish(Outcome outcome, std::string_view note = {});
  std::uint32_t id() const { return id_; }

 private:
  Recorder* rec_ = nullptr;  ///< null when recording was off at construction
  std::uint32_t id_ = 0;
  Recorder* prev_rec_ = nullptr;
  std::uint32_t prev_id_ = 0;
  int uncaught_ = 0;
  bool finished_ = false;
};

/// RAII phase scope, the one timer of a pipeline phase: the trace span
/// `name`/`category`, PhaseBegin/PhaseEnd events and the current request's
/// phase seconds all take the same two clock reads.  Either sink may be off.
class PhaseScope {
 public:
  PhaseScope(Phase phase, std::string_view name, std::string_view category,
             Recorder& recorder = Recorder::global(),
             trace::Tracer& tracer = trace::Tracer::global());
  ~PhaseScope() { end(); }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  void attr(std::string_view key, json::Value value) {
    span_.attr(key, std::move(value));
  }

  /// End the phase and return its duration in seconds.  Idempotent.
  double end();

 private:
  trace::Span span_;
  Recorder* rec_ = nullptr;  ///< null when recording is off
  Phase phase_ = Phase::None;
};

/// Derive the nested span tree for one request from its PhaseBegin/PhaseEnd
/// event slice (per-thread stacks; unmatched events from ring wraparound are
/// tolerated).  Returns an array of {name, t_us, dur_us, children}.
json::Value span_tree(const std::vector<Event>& events, std::uint32_t request);

}  // namespace splice::flight
