#include "src/support/flight.hpp"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <thread>

#include "src/support/strings.hpp"
#include "src/support/trace.hpp"

namespace splice::flight {

// ---- names -----------------------------------------------------------------

std::string_view kind_name(EventKind k) {
  switch (k) {
    case EventKind::RequestBegin: return "request.begin";
    case EventKind::RequestEnd: return "request.end";
    case EventKind::PhaseBegin: return "phase.begin";
    case EventKind::PhaseEnd: return "phase.end";
    case EventKind::SatRestart: return "sat.restart";
    case EventKind::SatConflicts: return "sat.conflicts";
    case EventKind::ModelFound: return "asp.model";
    case EventKind::LoopNogood: return "asp.loop_nogood";
    case EventKind::BoundImproved: return "asp.bound";
    case EventKind::LevelDone: return "asp.level_done";
    case EventKind::GroundDone: return "ground.done";
    case EventKind::SpliceVerdict: return "splice.verdict";
    case EventKind::InstallStep: return "install.step";
    case EventKind::RewireStep: return "install.rewire";
    case EventKind::Mark: return "mark";
  }
  return "unknown";
}

std::string_view phase_name(Phase p) {
  switch (p) {
    case Phase::None: return "none";
    case Phase::Compile: return "compile";
    case Phase::Ground: return "ground";
    case Phase::Solve: return "solve";
    case Phase::Extract: return "extract";
    case Phase::Explain: return "explain";
    case Phase::Audit: return "audit";
    case Phase::Install: return "install";
  }
  return "unknown";
}

std::string_view outcome_name(Outcome o) {
  switch (o) {
    case Outcome::Active: return "active";
    case Outcome::Ok: return "ok";
    case Outcome::Unsat: return "unsat";
    case Outcome::Error: return "error";
    case Outcome::Budget: return "budget";
  }
  return "unknown";
}

// ---- JSON ------------------------------------------------------------------

json::Value Event::to_json() const {
  json::Object o;
  o["seq"] = static_cast<std::int64_t>(seq);
  o["t_us"] = static_cast<double>(t_us);
  o["req"] = static_cast<std::int64_t>(request);
  o["kind"] = kind_name(kind);
  o["phase"] = phase_name(phase);
  o["tid"] = static_cast<std::int64_t>(tid);
  if (a != 0) o["a"] = a;
  if (b != 0) o["b"] = b;
  auto d = detail_view();
  if (!d.empty()) o["detail"] = d;
  return json::Value(std::move(o));
}

double RequestAccount::phase_sum_seconds() const {
  double total = 0;
  for (double s : phase_seconds) total += s;
  return total;
}

json::Value RequestAccount::to_json() const {
  json::Object o;
  o["id"] = static_cast<std::int64_t>(id);
  o["request"] = text;
  o["outcome"] = outcome_name(outcome);
  o["begin_us"] = begin_us;
  o["end_us"] = end_us;
  o["seconds"] = seconds();
  o["slow"] = slow;
  json::Object phases;
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    if (phase_seconds[i] > 0) {
      phases[std::string(phase_name(static_cast<Phase>(i)))] =
          phase_seconds[i];
    }
  }
  o["phases"] = json::Value(std::move(phases));
  json::Object stats;
  stats["conflicts"] = rollup.conflicts;
  stats["decisions"] = rollup.decisions;
  stats["propagations"] = rollup.propagations;
  stats["restarts"] = rollup.restarts;
  stats["models"] = rollup.models;
  stats["loop_nogoods"] = rollup.loop_nogoods;
  stats["ground_rules"] = rollup.ground_rules;
  stats["ground_atoms"] = rollup.ground_atoms;
  stats["sat_vars"] = rollup.sat_vars;
  stats["sat_clauses"] = rollup.sat_clauses;
  o["stats"] = json::Value(std::move(stats));
  o["builds"] = builds;
  o["reused"] = reused;
  o["splices"] = splices;
  if (!note.empty()) o["note"] = note;
  return json::Value(std::move(o));
}

// ---- Recorder --------------------------------------------------------------

namespace {

/// Calling thread's current (recorder, request) binding, set by RequestScope.
struct Current {
  Recorder* rec = nullptr;
  std::uint32_t id = 0;
};
thread_local Current t_current;

std::size_t round_pow2(std::size_t n) {
  std::size_t cap = 1;
  while (cap < n && cap < kMaxCapacity) cap <<= 1;
  return cap;
}

/// Filesystem-safe slug for dump filenames.
std::string slugify(std::string_view text, std::size_t max_len = 40) {
  std::string out;
  for (char c : text) {
    if (out.size() >= max_len) break;
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9');
    out.push_back(ok ? c : '-');
  }
  while (!out.empty() && out.back() == '-') out.pop_back();
  return out.empty() ? "request" : out;
}

}  // namespace

Recorder::Recorder(RecorderOptions opts) { configure(std::move(opts)); }

void Recorder::configure(RecorderOptions opts) {
  std::lock_guard<std::mutex> lock(mu_);
  opts_ = std::move(opts);
  if (opts_.capacity == 0) opts_.capacity = 1;
  opts_.capacity = round_pow2(opts_.capacity);
  if (opts_.max_requests == 0) opts_.max_requests = 1;
  enabled_.store(opts_.enabled, std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
  ring_.assign(opts_.capacity, Event{});
  next_seq_ = 0;
  next_request_ = 1;
  accounts_.clear();
  account_order_.clear();
}

Recorder& Recorder::global() {
  static Recorder* rec = [] {
    RecorderOptions opts;
    opts.enabled = env_switch("SPLICE_FLIGHT", opts.enabled);
    opts.capacity = static_cast<std::size_t>(
        env_count("SPLICE_FLIGHT_CAPACITY", opts.capacity, kMaxCapacity));
    opts.slow_ms = env_number("SPLICE_FLIGHT_SLOW_MS", 0);
    opts.slow_conflicts = env_count("SPLICE_FLIGHT_SLOW_CONFLICTS", 0);
    if (std::string dir = env_path("SPLICE_FLIGHT_DIR"); !dir.empty()) {
      opts.dump_dir = std::move(dir);
      opts.dump_abnormal = true;
    }
    // Never destroyed: must stay usable from atexit and signal handlers.
    auto* r = new Recorder(std::move(opts));
    static const std::string exit_path = env_path("SPLICE_FLIGHT_EXIT");
    if (!exit_path.empty()) {
      std::atexit([] {
        if (!Recorder::global().write_dump(exit_path, "exit")) {
          std::fprintf(stderr,
                       "splice: warning: SPLICE_FLIGHT_EXIT: cannot write "
                       "flight dump to \"%s\"\n",
                       exit_path.c_str());
        }
      });
    }
    if (std::string crash = env_path("SPLICE_FLIGHT_CRASH"); !crash.empty()) {
      install_crash_handler(std::move(crash));
    }
    double watchdog_ms = env_number("SPLICE_FLIGHT_WATCHDOG_MS", 0);
    if (watchdog_ms > 0) r->start_watchdog(watchdog_ms);
    return r;
  }();
  return *rec;
}

double Recorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Recorder::push_locked(Event ev) {
  ev.seq = next_seq_++;
  ring_[ev.seq & (ring_.size() - 1)] = ev;
}

void Recorder::do_emit(EventKind kind, std::int64_t a, std::int64_t b,
                       std::string_view detail, Phase phase,
                       std::chrono::steady_clock::time_point at) {
  Event ev;
  ev.t_us = static_cast<std::uint64_t>(
      std::chrono::duration<double, std::micro>(at - epoch_).count());
  ev.a = a;
  ev.b = b;
  ev.kind = kind;
  ev.phase = phase;
  ev.tid = static_cast<std::uint16_t>(trace::Tracer::thread_id());
  if (t_current.rec == this) ev.request = t_current.id;
  std::size_t n = std::min(detail.size(), sizeof(ev.detail) - 1);
  if (n > 0) std::memcpy(ev.detail, detail.data(), n);
  std::lock_guard<std::mutex> lock(mu_);
  push_locked(ev);
}

void Recorder::mirror(EventKind kind, std::int64_t a, std::int64_t b,
                      std::string_view detail, Phase phase) const {
  // Request and phase boundaries reach the tracer as spans, not instants.
  if (kind <= EventKind::PhaseEnd) return;
  std::vector<std::pair<std::string, json::Value>> args{
      {"req", json::Value(static_cast<std::int64_t>(current_request()))},
      {"a", json::Value(a)},
      {"b", json::Value(b)}};
  // The same (truncated) label the ring slot keeps.
  detail = detail.substr(0, sizeof(Event::detail) - 1);
  if (!detail.empty()) args.emplace_back("detail", json::Value(detail));
  trace::Tracer::global().instant(kind_name(kind), phase_name(phase),
                                  std::move(args));
}

std::uint32_t Recorder::current_request() const {
  return t_current.rec == this ? t_current.id : 0;
}

RequestAccount* Recorder::find_locked(std::uint32_t id) {
  auto it = accounts_.find(id);
  return it == accounts_.end() ? nullptr : &it->second;
}

std::uint32_t Recorder::begin_request(std::string_view text) {
  if (!enabled()) return 0;
  double t = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  std::uint32_t id = next_request_++;
  RequestAccount acc;
  acc.id = id;
  acc.text = std::string(text);
  acc.begin_us = t;
  accounts_.emplace(id, std::move(acc));
  account_order_.push_back(id);
  // Evict the oldest finished account once over budget; active accounts are
  // only sacrificed when nothing finished remains.
  while (accounts_.size() > opts_.max_requests) {
    auto victim = account_order_.end();
    for (auto it = account_order_.begin(); it != account_order_.end(); ++it) {
      auto* acc_p = find_locked(*it);
      if (acc_p == nullptr || acc_p->outcome != Outcome::Active) {
        victim = it;
        break;
      }
    }
    if (victim == account_order_.end()) victim = account_order_.begin();
    accounts_.erase(*victim);
    account_order_.erase(victim);
  }
  Event ev;
  ev.t_us = static_cast<std::uint64_t>(t);
  ev.request = id;
  ev.kind = EventKind::RequestBegin;
  ev.tid = static_cast<std::uint16_t>(trace::Tracer::thread_id());
  std::size_t n = std::min(text.size(), sizeof(ev.detail) - 1);
  if (n > 0) std::memcpy(ev.detail, text.data(), n);
  push_locked(ev);
  return id;
}

void Recorder::end_request(std::uint32_t id, Outcome outcome,
                           std::string_view note) {
  if (!enabled() || id == 0) return;
  double t = now_us();
  RequestAccount snapshot;
  double slow_ms = 0;
  std::uint64_t slow_conflicts = 0;
  bool dump_abnormal = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    RequestAccount* acc = find_locked(id);
    if (acc == nullptr || acc->outcome != Outcome::Active) return;
    acc->end_us = t;
    acc->outcome = outcome;
    acc->note = std::string(note);
    slow_ms = opts_.slow_ms;
    slow_conflicts = opts_.slow_conflicts;
    acc->slow =
        (slow_ms > 0 && acc->seconds() * 1000.0 >= slow_ms) ||
        (slow_conflicts > 0 && acc->rollup.conflicts >= slow_conflicts);
    dump_abnormal = opts_.dump_abnormal &&
                    (outcome == Outcome::Error || outcome == Outcome::Budget);
    snapshot = *acc;
    Event ev;
    ev.t_us = static_cast<std::uint64_t>(t);
    ev.request = id;
    ev.kind = EventKind::RequestEnd;
    ev.a = static_cast<std::int64_t>(acc->seconds() * 1e6);
    ev.b = static_cast<std::int64_t>(acc->rollup.conflicts);
    ev.tid = static_cast<std::uint16_t>(trace::Tracer::thread_id());
    auto name = outcome_name(outcome);
    std::size_t n = std::min(name.size(), sizeof(ev.detail) - 1);
    std::memcpy(ev.detail, name.data(), n);
    push_locked(ev);
  }
  auto& m = trace::Tracer::global().metrics();
  m.add("flight.requests");
  m.add("flight.requests." + std::string(outcome_name(outcome)));
  if (snapshot.slow) m.add("flight.slow_requests");
  m.observe("flight.request/seconds", snapshot.seconds());
  m.observe("flight.request/conflicts",
            static_cast<double>(snapshot.rollup.conflicts));
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    if (snapshot.phase_seconds[i] > 0) {
      m.observe("flight.phase/" +
                    std::string(phase_name(static_cast<Phase>(i))) +
                    ".seconds",
                snapshot.phase_seconds[i]);
    }
  }
  if (snapshot.slow || dump_abnormal) {
    std::string path =
        auto_dump_path(snapshot, snapshot.slow ? "slow" : "abnormal");
    if (!path.empty()) {
      std::ofstream out(path);
      if (out) {
        out << dump_request_json(id, snapshot.slow ? "slow" : "abnormal")
                   .dump_pretty()
            << "\n";
      }
      if (!out) {
        std::fprintf(stderr,
                     "splice: warning: cannot write flight dump to \"%s\"\n",
                     path.c_str());
      }
    }
  }
}

std::string Recorder::auto_dump_path(const RequestAccount& acc,
                                     std::string_view stem) const {
  if (opts_.dump_dir.empty()) return {};
  std::string path = opts_.dump_dir;
  if (path.back() != '/') path.push_back('/');
  path += "flight-";
  path += std::string(stem);
  path += "-";
  path += std::to_string(acc.id);
  path += "-";
  path += slugify(acc.text);
  path += ".json";
  return path;
}

void Recorder::add_rollup(std::uint32_t id, const Rollup& r) {
  if (!enabled() || id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  RequestAccount* acc = find_locked(id);
  if (acc == nullptr) return;
  acc->rollup.conflicts += r.conflicts;
  acc->rollup.decisions += r.decisions;
  acc->rollup.propagations += r.propagations;
  acc->rollup.restarts += r.restarts;
  acc->rollup.models += r.models;
  acc->rollup.loop_nogoods += r.loop_nogoods;
  acc->rollup.ground_rules += r.ground_rules;
  acc->rollup.ground_atoms += r.ground_atoms;
  acc->rollup.sat_vars += r.sat_vars;
  acc->rollup.sat_clauses += r.sat_clauses;
}

void Recorder::add_solution(std::uint32_t id, std::uint64_t builds,
                            std::uint64_t reused, std::uint64_t splices) {
  if (!enabled() || id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  RequestAccount* acc = find_locked(id);
  if (acc == nullptr) return;
  acc->builds += builds;
  acc->reused += reused;
  acc->splices += splices;
}

void Recorder::add_phase_seconds(std::uint32_t id, Phase p, double seconds) {
  if (!enabled() || id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  RequestAccount* acc = find_locked(id);
  if (acc == nullptr) return;
  acc->phase_seconds[static_cast<std::size_t>(p)] += seconds;
}

std::uint64_t Recorder::total_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

std::vector<Event> Recorder::events_locked() const {
  std::vector<Event> out;
  std::uint64_t n = std::min<std::uint64_t>(next_seq_, ring_.size());
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t seq = next_seq_ - n; seq < next_seq_; ++seq) {
    out.push_back(ring_[seq & (ring_.size() - 1)]);
  }
  return out;
}

std::vector<Event> Recorder::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_locked();
}

std::vector<RequestAccount> Recorder::requests() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RequestAccount> out;
  out.reserve(account_order_.size());
  for (std::uint32_t id : account_order_) {
    auto it = accounts_.find(id);
    if (it != accounts_.end()) out.push_back(it->second);
  }
  return out;
}

std::optional<RequestAccount> Recorder::request(std::uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = accounts_.find(id);
  if (it == accounts_.end()) return std::nullopt;
  return it->second;
}

void Recorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.assign(ring_.size(), Event{});
  next_seq_ = 0;
  accounts_.clear();
  account_order_.clear();
}

// ---- span tree -------------------------------------------------------------

json::Value span_tree(const std::vector<Event>& events, std::uint32_t request) {
  struct Node {
    std::string name;
    double t_us = 0;
    double dur_us = 0;
    std::vector<Node> children;
  };
  // Per-thread stacks of open phases; unmatched PhaseEnd events (their
  // PhaseBegin fell off the ring) are dropped rather than mis-nested.
  std::map<std::uint16_t, std::vector<Node>> stacks;
  std::vector<Node> roots;
  auto close = [&](std::vector<Node>& stack, double t_us) {
    Node n = std::move(stack.back());
    stack.pop_back();
    n.dur_us = t_us - n.t_us;
    if (stack.empty()) {
      roots.push_back(std::move(n));
    } else {
      stack.back().children.push_back(std::move(n));
    }
  };
  for (const Event& ev : events) {
    if (request != 0 && ev.request != request) continue;
    if (ev.kind == EventKind::PhaseBegin) {
      Node n;
      n.name = std::string(phase_name(ev.phase));
      n.t_us = static_cast<double>(ev.t_us);
      stacks[ev.tid].push_back(std::move(n));
    } else if (ev.kind == EventKind::PhaseEnd) {
      auto& stack = stacks[ev.tid];
      if (!stack.empty()) close(stack, static_cast<double>(ev.t_us));
    }
  }
  // Phases still open (request active, or PhaseEnd beyond the snapshot)
  // close at their own start time: visible, zero-length.
  for (auto& [tid, stack] : stacks) {
    while (!stack.empty()) close(stack, stack.back().t_us);
  }
  std::sort(roots.begin(), roots.end(),
            [](const Node& x, const Node& y) { return x.t_us < y.t_us; });
  std::function<json::Value(const Node&)> to_json = [&](const Node& n) {
    json::Object o;
    o["name"] = n.name;
    o["t_us"] = n.t_us;
    o["dur_us"] = n.dur_us;
    if (!n.children.empty()) {
      json::Array kids;
      for (const Node& c : n.children) kids.push_back(to_json(c));
      o["children"] = json::Value(std::move(kids));
    }
    return json::Value(std::move(o));
  };
  json::Array out;
  for (const Node& n : roots) out.push_back(to_json(n));
  return json::Value(std::move(out));
}

// ---- dumps -----------------------------------------------------------------

namespace {

json::Value dump_header(const RecorderOptions& opts, std::size_t capacity,
                        std::uint64_t total, std::string_view reason) {
  json::Object o;
  o["schema"] = "splice-flight-v1";
  o["reason"] = reason;
  o["capacity"] = static_cast<std::int64_t>(capacity);
  o["total_events"] = static_cast<std::int64_t>(total);
  std::uint64_t dropped = total > capacity ? total - capacity : 0;
  o["dropped_events"] = static_cast<std::int64_t>(dropped);
  o["slow_ms"] = opts.slow_ms;
  o["slow_conflicts"] = static_cast<std::int64_t>(opts.slow_conflicts);
  return json::Value(std::move(o));
}

}  // namespace

json::Value Recorder::dump_json(std::string_view reason) const {
  std::vector<Event> events;
  std::vector<RequestAccount> accounts;
  std::uint64_t total = 0;
  RecorderOptions opts;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events = events_locked();
    total = next_seq_;
    opts = opts_;
    accounts.reserve(account_order_.size());
    for (std::uint32_t id : account_order_) {
      auto it = accounts_.find(id);
      if (it != accounts_.end()) accounts.push_back(it->second);
    }
  }
  json::Value doc = dump_header(opts, ring_.size(), total, reason);
  json::Array reqs;
  for (const RequestAccount& acc : accounts) {
    json::Value r = acc.to_json();
    r["spans"] = span_tree(events, acc.id);
    reqs.push_back(std::move(r));
  }
  doc["requests"] = json::Value(std::move(reqs));
  json::Array evs;
  for (const Event& ev : events) evs.push_back(ev.to_json());
  doc["events"] = json::Value(std::move(evs));
  return doc;
}

json::Value Recorder::dump_request_json(std::uint32_t id,
                                        std::string_view reason) const {
  std::vector<Event> events;
  std::optional<RequestAccount> acc;
  std::uint64_t total = 0;
  RecorderOptions opts;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events = events_locked();
    total = next_seq_;
    opts = opts_;
    auto it = accounts_.find(id);
    if (it != accounts_.end()) acc = it->second;
  }
  json::Value doc = dump_header(opts, ring_.size(), total, reason);
  json::Array reqs;
  if (acc) {
    json::Value r = acc->to_json();
    r["spans"] = span_tree(events, id);
    reqs.push_back(std::move(r));
  }
  doc["requests"] = json::Value(std::move(reqs));
  json::Array evs;
  for (const Event& ev : events) {
    if (ev.request == id) evs.push_back(ev.to_json());
  }
  doc["events"] = json::Value(std::move(evs));
  return doc;
}

bool Recorder::write_dump(const std::string& path,
                          std::string_view reason) const {
  std::ofstream out(path);
  if (!out) return false;
  out << dump_json(reason).dump_pretty() << "\n";
  return static_cast<bool>(out);
}

// ---- watchdog --------------------------------------------------------------

void Recorder::start_watchdog(double ms) {
  if (ms <= 0) return;
  bool expected = false;
  if (!watchdog_running_.compare_exchange_strong(expected, true)) return;
  std::thread([this, ms] {
    std::uint32_t last_dumped = 0;
    for (;;) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<std::int64_t>(ms) / 4 + 1));
      if (!enabled()) continue;
      double now = now_us();
      std::uint32_t overdue = 0;
      std::string dir;
      {
        std::lock_guard<std::mutex> lock(mu_);
        dir = opts_.dump_dir;
        for (std::uint32_t id : account_order_) {
          auto it = accounts_.find(id);
          if (it == accounts_.end()) continue;
          const RequestAccount& acc = it->second;
          if (acc.outcome == Outcome::Active && id > last_dumped &&
              (now - acc.begin_us) * 1e-3 >= ms) {
            overdue = id;
            break;
          }
        }
      }
      if (overdue == 0 || dir.empty()) continue;
      last_dumped = overdue;
      std::string path = dir;
      if (path.back() != '/') path.push_back('/');
      path += "flight-watchdog-" + std::to_string(overdue) + ".json";
      std::ofstream out(path);
      if (out) out << dump_json("watchdog").dump_pretty() << "\n";
    }
  }).detach();
}

// ---- crash handler ---------------------------------------------------------

namespace {

char g_crash_path[512] = {};

extern "C" void flight_crash_handler(int sig) {
  // Best effort: ofstream/malloc are not async-signal-safe, but on the way
  // to process death after SIGSEGV a recovered dump beats no dump.  The
  // handler re-raises with default disposition either way.
  std::signal(sig, SIG_DFL);
  if (g_crash_path[0] != '\0') {
    Recorder::global().write_dump(g_crash_path, "signal");
  }
  std::raise(sig);
}

}  // namespace

void Recorder::install_crash_handler(std::string path) {
  std::size_t n = std::min(path.size(), sizeof(g_crash_path) - 1);
  std::memcpy(g_crash_path, path.data(), n);
  g_crash_path[n] = '\0';
  for (int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
    std::signal(sig, flight_crash_handler);
  }
}

// ---- RequestScope / PhaseScope ---------------------------------------------

RequestScope::RequestScope(std::string_view text, Recorder& recorder)
    : uncaught_(std::uncaught_exceptions()) {
  if (!recorder.enabled()) return;
  rec_ = &recorder;
  id_ = recorder.begin_request(text);
  prev_rec_ = t_current.rec;
  prev_id_ = t_current.id;
  t_current.rec = rec_;
  t_current.id = id_;
}

RequestScope::~RequestScope() {
  if (rec_ == nullptr) return;
  finish(std::uncaught_exceptions() > uncaught_ ? Outcome::Error : Outcome::Ok,
         std::uncaught_exceptions() > uncaught_ ? "uncaught exception" : "");
  t_current.rec = prev_rec_;
  t_current.id = prev_id_;
}

void RequestScope::finish(Outcome outcome, std::string_view note) {
  if (rec_ == nullptr || finished_) return;
  finished_ = true;
  rec_->end_request(id_, outcome, note);
}

PhaseScope::PhaseScope(Phase phase, std::string_view name,
                       std::string_view category, Recorder& recorder,
                       trace::Tracer& tracer)
    : span_(name, category, tracer), phase_(phase) {
  if (!recorder.enabled()) return;
  rec_ = &recorder;
  rec_->do_emit(EventKind::PhaseBegin, 0, 0, {}, phase, span_.start_time());
}

double PhaseScope::end() {
  double seconds = span_.end();
  if (rec_ != nullptr) {
    rec_->do_emit(EventKind::PhaseEnd, 0, 0, {}, phase_, span_.end_time());
    rec_->add_phase_seconds(rec_->current_request(), phase_, seconds);
    rec_ = nullptr;
  }
  return seconds;
}

}  // namespace splice::flight
