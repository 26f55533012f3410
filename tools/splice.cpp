// splice: the workload front end.  One driver, one workload parser, one run
// path over the synthetic RADIUSS workload (paper §6):
//
//   splice run [options] [request ...]      concretize a batch of requests
//       on a ConcretizerPool and write any of: Chrome trace, splice-stats-v1,
//       splice-flight-v1 (plus slow-request auto-dumps), splice-batch-v1,
//       Prometheus text
//   splice profile [options] [root ...]     directive-level cost profile
//       (splice-profile-v1, folded stacks)
//   splice explain [options] [root ...]     splice report or minimized
//       unsat core (splice-explain-v1)
//   splice flight list|show|chrome ...      inspect splice-flight-v1
//       recordings
//
// Every workload subcommand takes the same shape flags (--splice, --direct,
// --public N, --replicas N, --no-cache), parsed by
// workload_flag() and built by load_workload(): the RADIUSS repository, the
// local or public cache, and one Concretizer with the cache registered once.
// Numeric flag values are strict: empty, non-numeric, negative or
// trailing-junk values are usage errors (exit 2).  tools/trace_check
// validates every artifact this tool writes.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/concretize/pool.hpp"
#include "src/support/chrome.hpp"
#include "src/support/error.hpp"
#include "src/support/flight.hpp"
#include "src/support/json.hpp"
#include "src/support/parallel.hpp"
#include "src/support/strings.hpp"
#include "src/support/trace.hpp"
#include "src/workload/caches.hpp"
#include "src/workload/radiuss.hpp"

namespace {

using namespace splice;
using json::Value;

void usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: splice <command> [options] [request ...]\n"
      "\n"
      "commands:\n"
      "  run [options] [request ...]\n"
      "      concretize each request against the synthetic RADIUSS workload\n"
      "      on a worker pool.  A request is a root spec plus optional\n"
      "      !package forbidden markers, e.g. \"visit ^mpiabi !mpich\".\n"
      "      --jobs N            worker threads (default 1; 0 = one per\n"
      "                          hardware thread; at most 1024)\n"
      "      --no-prune          compile every reusable entry (no\n"
      "                          reachability pruning)\n"
      "      --file FILE         read requests from FILE too (one per line;\n"
      "                          # comments)\n"
      "      --json FILE         splice-batch-v1 report\n"
      "      --trace FILE        Chrome trace-event JSON (enables tracing)\n"
      "      --stats FILE        splice-stats-v1 JSON (enables tracing)\n"
      "      --flight FILE       the full flight recording (splice-flight-v1)\n"
      "      --slow-ms N         slow-request latency threshold (auto-dump)\n"
      "      --slow-conflicts N  slow-request conflict threshold (auto-dump)\n"
      "      --dir DIR           directory for automatic dumps (default .)\n"
      "      --capacity N        flight ring capacity, at most 2^20 events\n"
      "      --metrics FILE      Prometheus metrics exposition\n"
      "      default requests: every RADIUSS root (with ^mpiabi under\n"
      "      --splice for the MPI-dependent ones)\n"
      "  profile [options] [root ...]\n"
      "      concretize the roots together with cost profiling and report the\n"
      "      hottest package directives and encoding rules\n"
      "      --json FILE         splice-profile-v1 report\n"
      "      --folded FILE       folded stacks (flamegraph.pl input)\n"
      "      --top N             rows per console cost table (default 10)\n"
      "  explain [options] [root ...]\n"
      "      explain the roots (one request set): splice decisions when a\n"
      "      solution exists, a minimized unsat core when none does\n"
      "      --json FILE         splice-explain-v1 document\n"
      "      --metrics FILE      Prometheus metrics exposition\n"
      "      --flight FILE       per-probe flight recording\n"
      "      --slow-ms N         flag probes slower than N ms\n"
      "      --forbid NAME       forbid package NAME in every request\n"
      "      --no-minimize       report the raw unsat core\n"
      "  profile and explain default to \"visit ^mpiabi\" with --splice,\n"
      "  \"visit ^mpich\" otherwise.\n"
      "  flight list FILE...     one summary row per recorded request\n"
      "  flight show FILE [--request N] [--events]\n"
      "                          pretty-print one recording\n"
      "  flight chrome FILE -o OUT\n"
      "                          convert a recording to Chrome trace JSON\n"
      "\n"
      "workload options (run, profile, explain):\n"
      "  --splice       enable splicing (indirect encoding)\n"
      "  --direct       old-spack direct encoding, splicing off\n"
      "  --public N     reuse against a synthetic public cache of ~N node "
      "specs\n"
      "                 (default: the local RADIUSS cache)\n"
      "  --replicas N   add N mpiabi replica packages (RQ4 shape)\n"
      "  --no-cache     no reusable specs at all\n");
}

/// Cursor over one subcommand's arguments.  Every flag value goes through
/// value()/count()/milliseconds(), so a missing or malformed value is a
/// usage error (exit 2) that names the flag.
class Args {
 public:
  Args(std::string cmd, int argc, char** argv)
      : cmd_(std::move(cmd)), args_(argv, argv + argc) {}

  const std::string& cmd() const { return cmd_; }

  /// Advance to the next argument; --help anywhere prints usage and exits.
  bool next() {
    if (pos_ >= args_.size()) return false;
    arg_ = args_[pos_++];
    if (arg_ == "--help" || arg_ == "-h") {
      usage(stdout);
      std::exit(0);
    }
    return true;
  }
  bool is(const char* flag) const { return arg_ == flag; }

  /// The value of the current flag.
  const std::string& value() {
    if (pos_ >= args_.size()) fail(arg_ + " needs a value");
    return args_[pos_++];
  }
  /// A non-negative decimal integer value, at most `max`.
  std::size_t count(std::uint64_t max = UINT64_MAX) {
    const std::string& text = value();
    std::optional<std::uint64_t> n = parse_count(text);
    if (!n || *n > max) {
      fail(arg_ + ": expected " +
           (n ? "at most " + std::to_string(max) : "a non-negative integer") +
           ", got \"" + text + "\"");
    }
    return static_cast<std::size_t>(*n);
  }
  /// A finite, non-negative decimal number value.
  double milliseconds() {
    const std::string& text = value();
    std::optional<double> ms = parse_non_negative(text);
    if (!ms) {
      fail(arg_ + ": expected a non-negative number, got \"" + text + "\"");
    }
    return *ms;
  }
  /// The current argument as a positional; rejects unknown options.
  const std::string& positional() const {
    if (arg_.size() > 1 && arg_[0] == '-') fail("unknown option " + arg_);
    return arg_;
  }

  [[noreturn]] void fail(const std::string& what) const {
    std::fprintf(stderr, "splice %s: %s (see splice --help)\n", cmd_.c_str(),
                 what.c_str());
    std::exit(2);
  }

 private:
  std::string cmd_;
  std::vector<std::string> args_;
  std::size_t pos_ = 0;
  std::string arg_;
};

// ---- workload --------------------------------------------------------------

struct WorkloadFlags {
  bool splice = false;
  bool direct = false;
  bool no_cache = false;
  bool no_prune = false;
  std::size_t public_nodes = 0;
  std::size_t replicas = 0;
};

/// Consume the current argument if it is a workload flag.
bool workload_flag(Args& a, WorkloadFlags& w) {
  if (a.is("--splice")) {
    w.splice = true;
  } else if (a.is("--direct")) {
    w.direct = true;
  } else if (a.is("--no-cache")) {
    w.no_cache = true;
  } else if (a.is("--public")) {
    w.public_nodes = a.count();
  } else if (a.is("--replicas")) {
    w.replicas = a.count();
  } else {
    return false;
  }
  return true;
}

/// Default roots for profile/explain.
std::vector<std::string> default_root(const WorkloadFlags& w) {
  return {w.splice ? "visit ^mpiabi" : "visit ^mpich"};
}

/// The repository, plus one Concretizer with the whole cache registered.
/// Pinned in place: the Concretizer holds a reference to `repo`.
struct Workload {
  Workload(repo::Repository r, concretize::ConcretizerOptions opts)
      : repo(std::move(r)), concretizer(repo, std::move(opts)) {}
  repo::Repository repo;
  concretize::Concretizer concretizer;
};

/// Build the workload and print the header line.  The tool/workload_setup
/// span covers repository and cache generation plus registration.
std::unique_ptr<Workload> load_workload(const Args& a, const WorkloadFlags& w,
                                        std::size_t requests) {
  if (w.direct && w.splice) a.fail("--direct and --splice conflict");
  concretize::ConcretizerOptions opts;
  opts.encoding = w.direct ? concretize::ReuseEncoding::Direct
                           : concretize::ReuseEncoding::Indirect;
  opts.enable_splicing = w.splice;
  opts.prune_reuse = !w.no_prune;

  trace::Span setup("workload_setup", "tool");
  auto out = std::make_unique<Workload>(workload::radiuss_repo(w.replicas),
                                        std::move(opts));
  std::vector<spec::Spec> cache;
  if (!w.no_cache) {
    cache = w.public_nodes > 0
                ? workload::public_cache_specs(out->repo, w.public_nodes)
                : workload::local_cache_specs(out->repo);
  }
  out->concretizer.add_reusable_all(cache);
  std::size_t nodes = workload::distinct_nodes(cache);
  setup.attr("cache_specs", nodes);
  double seconds = setup.end();

  std::printf("splice %s: %zu request(s), encoding=%s, splicing=%s, "
              "pruning=%s, cache=%zu node specs, setup %.3fs\n",
              a.cmd().c_str(), requests, w.direct ? "direct" : "indirect",
              w.splice ? "on" : "off", w.no_prune ? "off" : "on", nodes,
              seconds);
  return out;
}

/// Write `render()` to `path` unless the path is empty (an output nobody
/// asked for); reports the outcome under `cmd`, false on an I/O error.
bool write_output(const std::string& cmd, const std::string& path,
                  const std::function<std::string()>& render) {
  if (path.empty()) return true;
  std::ofstream out(path, std::ios::binary);
  out << render();
  if (!out) {
    std::fprintf(stderr, "splice %s: cannot write %s\n", cmd.c_str(),
                 path.c_str());
    return false;
  }
  std::printf("splice %s: wrote %s\n", cmd.c_str(), path.c_str());
  return true;
}

std::string pretty(const Value& doc) { return doc.dump_pretty() + "\n"; }

std::string metrics_text() {
  return trace::Tracer::global().metrics().metrics_text();
}

std::string flight_dump() {
  return pretty(flight::Recorder::global().dump_json("manual"));
}

// ---- run -------------------------------------------------------------------

/// "visit ^mpiabi !mpich" -> spec "visit ^mpiabi", forbidden {"mpich"}.
concretize::Request parse_request(const std::string& text) {
  std::vector<std::string> spec_tokens;
  std::vector<std::string> forbidden;
  for (std::string& token : split_ws(text)) {
    if (token[0] != '!') {
      spec_tokens.push_back(std::move(token));
    } else if (token.size() > 1) {
      forbidden.push_back(token.substr(1));
    }
  }
  if (spec_tokens.empty()) throw Error("empty request: " + text);
  concretize::Request request(splice::join(spec_tokens, " "));
  request.forbidden = std::move(forbidden);
  return request;
}

int cmd_run(Args a) {
  WorkloadFlags w;
  std::size_t jobs = 1;
  std::string file_path, json_path, trace_path, stats_path, flight_path,
      metrics_path;
  flight::RecorderOptions ropts;
  bool configure_recorder = false;
  std::vector<std::string> texts;
  while (a.next()) {
    if (workload_flag(a, w)) continue;
    if (a.is("--jobs")) {
      jobs = a.count(kMaxJobs);
    } else if (a.is("--no-prune")) {
      w.no_prune = true;
    } else if (a.is("--file")) {
      file_path = a.value();
    } else if (a.is("--json")) {
      json_path = a.value();
    } else if (a.is("--trace")) {
      trace_path = a.value();
    } else if (a.is("--stats")) {
      stats_path = a.value();
    } else if (a.is("--flight")) {
      flight_path = a.value();
    } else if (a.is("--metrics")) {
      metrics_path = a.value();
    } else if (a.is("--slow-ms")) {
      ropts.slow_ms = a.milliseconds();
      configure_recorder = true;
    } else if (a.is("--slow-conflicts")) {
      ropts.slow_conflicts = a.count();
      configure_recorder = true;
    } else if (a.is("--dir")) {
      ropts.dump_dir = a.value();
      configure_recorder = true;
    } else if (a.is("--capacity")) {
      ropts.capacity = a.count(flight::kMaxCapacity);
      configure_recorder = true;
    } else {
      texts.push_back(a.positional());
    }
  }
  if (!file_path.empty()) {
    std::ifstream in(file_path);
    if (!in) a.fail("cannot read " + file_path);
    std::string line;
    while (std::getline(in, line)) {
      line.erase(std::min(line.find('#'), line.size()));
      if (line.find_first_not_of(" \t\r") != std::string::npos) {
        texts.push_back(line);
      }
    }
  }
  if (texts.empty()) {
    for (const std::string& root : workload::radiuss_roots()) {
      texts.push_back(w.splice && workload::depends_on_mpi(root)
                          ? root + " ^mpiabi"
                          : root);
    }
  }
  std::vector<concretize::Request> requests;
  requests.reserve(texts.size());
  try {
    for (const std::string& text : texts) {
      requests.push_back(parse_request(text));
    }
  } catch (const Error& e) {
    a.fail(e.what());
  }

  if (configure_recorder) flight::Recorder::global().configure(ropts);
  trace::Tracer& tracer = trace::Tracer::global();
  if (!trace_path.empty() || !stats_path.empty()) tracer.set_enabled(true);

  std::unique_ptr<Workload> wl = load_workload(a, w, requests.size());
  concretize::PoolOptions pool_opts;
  pool_opts.jobs = jobs;
  concretize::ConcretizerPool pool(wl->concretizer, pool_opts);
  concretize::BatchStats stats;
  std::vector<concretize::BatchItem> items =
      pool.concretize_batch(requests, &stats);

  json::Array results;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const concretize::BatchItem& item = items[i];
    const concretize::ConcretizeResult& r = item.result;
    json::Object row;
    row["request"] = texts[i];
    row["ok"] = item.ok;
    row["seconds"] = item.seconds;
    if (item.ok) {
      row["nodes"] = static_cast<std::int64_t>(r.spec.nodes().size());
      row["builds"] = static_cast<std::int64_t>(r.build_names.size());
      row["reused"] = static_cast<std::int64_t>(r.reused_hashes.size());
      row["splices"] = static_cast<std::int64_t>(r.splices.size());
      std::printf("  %-32s %zu nodes, %zu built, %zu reused, %zu spliced; "
                  "%.3fs (ground %.3f, translate %.3f, solve %.3f)\n",
                  texts[i].c_str(), r.spec.nodes().size(),
                  r.build_names.size(), r.reused_hashes.size(),
                  r.splices.size(), item.seconds, r.stats.ground_seconds,
                  r.stats.translate_seconds, r.stats.solve_seconds);
    } else {
      row["error"] = item.error;
      std::printf("  %-32s FAILED: %s\n", texts[i].c_str(),
                  item.error.c_str());
    }
    results.push_back(Value(std::move(row)));
  }
  std::printf("splice run: %zu/%zu ok on %zu worker(s) in %.3fs "
              "(%.2f req/s)\n",
              stats.succeeded, stats.requests, stats.workers, stats.seconds,
              stats.throughput_rps);

  json::Object doc;
  doc["schema"] = "splice-batch-v1";
  doc["jobs"] = static_cast<std::int64_t>(jobs);
  doc["workers"] = static_cast<std::int64_t>(stats.workers);
  doc["requests"] = static_cast<std::int64_t>(stats.requests);
  doc["succeeded"] = static_cast<std::int64_t>(stats.succeeded);
  doc["failed"] = static_cast<std::int64_t>(stats.failed);
  doc["seconds"] = stats.seconds;
  doc["throughput_rps"] = stats.throughput_rps;
  doc["results"] = std::move(results);
  bool ok = write_output("run", json_path, [&] { return pretty(doc); });
  ok = write_output("run", trace_path,
                    [&] { return pretty(tracer.chrome_trace()); }) && ok;
  ok = write_output("run", stats_path,
                    [&] { return pretty(tracer.stats_json()); }) && ok;
  ok = write_output("run", flight_path, flight_dump) && ok;
  ok = write_output("run", metrics_path, metrics_text) && ok;
  return (stats.failed == 0 && ok) ? 0 : 1;
}

// ---- profile ---------------------------------------------------------------

int cmd_profile(Args a) {
  WorkloadFlags w;
  std::string json_path, folded_path;
  std::size_t top = 10;
  std::vector<std::string> roots;
  while (a.next()) {
    if (workload_flag(a, w)) continue;
    if (a.is("--json")) {
      json_path = a.value();
    } else if (a.is("--folded")) {
      folded_path = a.value();
    } else if (a.is("--top")) {
      top = a.count();
    } else {
      roots.push_back(a.positional());
    }
  }
  if (roots.empty()) roots = default_root(w);

  std::unique_ptr<Workload> wl = load_workload(a, w, roots.size());
  std::vector<concretize::Request> requests(roots.begin(), roots.end());
  concretize::ProfileReport report = wl->concretizer.profile(requests);
  std::fputs(report.text(top).c_str(), stdout);

  bool ok = write_output("profile", json_path,
                         [&] { return pretty(report.to_json()); });
  ok = write_output("profile", folded_path,
                    [&] { return report.folded(); }) && ok;
  return ok ? 0 : 1;
}

// ---- explain ---------------------------------------------------------------

// All roots form ONE request set (the Spack environment model), so two roots
// with clashing constraints are the canonical unsat demo:
//
//   splice explain "visit ^mpich@3.4.3" "visit ^mpich@3.1"
int cmd_explain(Args a) {
  WorkloadFlags w;
  std::string json_path, metrics_path, flight_path;
  double slow_ms = 0;
  bool minimize = true;
  std::vector<std::string> forbidden;
  std::vector<std::string> roots;
  while (a.next()) {
    if (workload_flag(a, w)) continue;
    if (a.is("--json")) {
      json_path = a.value();
    } else if (a.is("--metrics")) {
      metrics_path = a.value();
    } else if (a.is("--flight")) {
      flight_path = a.value();
    } else if (a.is("--slow-ms")) {
      slow_ms = a.milliseconds();
    } else if (a.is("--forbid")) {
      forbidden.push_back(a.value());
    } else if (a.is("--no-minimize")) {
      minimize = false;
    } else {
      roots.push_back(a.positional());
    }
  }
  if (roots.empty()) roots = default_root(w);

  if (slow_ms > 0) {
    flight::RecorderOptions ropts;
    ropts.slow_ms = slow_ms;
    flight::Recorder::global().configure(ropts);
  }

  std::unique_ptr<Workload> wl = load_workload(a, w, roots.size());
  std::printf("\n");
  std::vector<concretize::Request> requests;
  requests.reserve(roots.size());
  for (const std::string& root : roots) {
    concretize::Request r(root);
    r.forbidden = forbidden;
    requests.push_back(std::move(r));
  }

  // A solvable request set gets the splice report (when splicing is on);
  // an unsolvable one gets the unsat core.  explain_splice doubles as the
  // satisfiability probe so the two paths share one solve.  Each probe is
  // its own flight request (--flight / --slow-ms).
  Value doc;
  bool need_unsat_probe = !w.splice;
  if (w.splice) {
    concretize::SpliceDiagnosis splice_diag =
        wl->concretizer.explain_splice(requests);
    if (splice_diag.sat) {
      std::fputs(splice_diag.text().c_str(), stdout);
      doc = splice_diag.to_json();
    } else {
      need_unsat_probe = true;
    }
  }
  if (need_unsat_probe) {
    asp::ExplainOptions eopts;
    eopts.minimize = minimize;
    concretize::UnsatDiagnosis unsat_diag =
        wl->concretizer.explain_unsat(requests, eopts);
    std::fputs(unsat_diag.text().c_str(), stdout);
    doc = unsat_diag.to_json();
  }

  bool ok = write_output("explain", json_path, [&] { return pretty(doc); });
  ok = write_output("explain", metrics_path, metrics_text) && ok;
  ok = write_output("explain", flight_path, flight_dump) && ok;
  return ok ? 0 : 1;
}

// ---- flight ----------------------------------------------------------------
//
// Recordings are `splice-flight-v1` JSON as produced by the always-on
// recorder's slow-request log, watchdog, exit/crash hooks, or by the
// --flight flag on splice run / splice explain / repo_audit.

std::optional<Value> load(const std::string& file) {
  std::ifstream in(file);
  if (!in) {
    std::fprintf(stderr, "splice flight: cannot open %s\n", file.c_str());
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    Value doc = json::parse(buf.str());
    const Value* schema = doc.find("schema");
    if (schema == nullptr || !schema->is_string() ||
        schema->as_string() != "splice-flight-v1") {
      std::fprintf(stderr, "splice flight: %s: not a splice-flight-v1 file\n",
                   file.c_str());
      return std::nullopt;
    }
    return doc;
  } catch (const Error& e) {
    std::fprintf(stderr, "splice flight: %s: %s\n", file.c_str(), e.what());
    return std::nullopt;
  }
}

double num(const Value& obj, const char* key) {
  const Value* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->as_double() : 0;
}

std::string str(const Value& obj, const char* key) {
  const Value* v = obj.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : "";
}

int flight_list(const std::vector<std::string>& files) {
  std::printf("%-4s %-8s %-5s %9s %10s %-s\n", "id", "outcome", "slow",
              "seconds", "conflicts", "request");
  int rc = 0;
  for (const std::string& file : files) {
    auto doc = load(file);
    if (!doc) {
      rc = 1;
      continue;
    }
    const Value* reqs = doc->find("requests");
    if (reqs == nullptr || !reqs->is_array()) continue;
    for (const Value& r : reqs->as_array()) {
      const Value* stats = r.find("stats");
      double conflicts = stats != nullptr ? num(*stats, "conflicts") : 0;
      const Value* slow = r.find("slow");
      std::printf("%-4lld %-8s %-5s %9.3f %10.0f %s\n",
                  static_cast<long long>(num(r, "id")),
                  str(r, "outcome").c_str(),
                  slow != nullptr && slow->is_bool() && slow->as_bool()
                      ? "yes"
                      : "no",
                  num(r, "seconds"), conflicts, str(r, "request").c_str());
    }
  }
  return rc;
}

void print_span(const Value& node, int depth) {
  std::printf("    %*s%-*s %9.3f ms\n", depth * 2, "",
              24 - depth * 2, str(node, "name").c_str(),
              num(node, "dur_us") * 1e-3);
  const Value* children = node.find("children");
  if (children != nullptr && children->is_array()) {
    for (const Value& c : children->as_array()) print_span(c, depth + 1);
  }
}

int flight_show(const std::string& file, std::int64_t only_request,
                bool with_events) {
  auto doc = load(file);
  if (!doc) return 1;
  std::printf("%s: reason=%s capacity=%lld dropped=%lld\n", file.c_str(),
              str(*doc, "reason").c_str(),
              static_cast<long long>(num(*doc, "capacity")),
              static_cast<long long>(num(*doc, "dropped_events")));
  const Value* reqs = doc->find("requests");
  if (reqs != nullptr && reqs->is_array()) {
    for (const Value& r : reqs->as_array()) {
      auto id = static_cast<std::int64_t>(num(r, "id"));
      if (only_request != 0 && id != only_request) continue;
      double seconds = num(r, "seconds");
      std::printf("\nrequest #%lld: %s\n", static_cast<long long>(id),
                  str(r, "request").c_str());
      std::printf("  outcome: %s%s   %.3fs\n", str(r, "outcome").c_str(),
                  r.find("slow") != nullptr && r.find("slow")->is_bool() &&
                          r.find("slow")->as_bool()
                      ? " (SLOW)"
                      : "",
                  seconds);
      const Value* note = r.find("note");
      if (note != nullptr && note->is_string()) {
        std::printf("  note: %s\n", note->as_string().c_str());
      }
      const Value* phases = r.find("phases");
      if (phases != nullptr && phases->is_object()) {
        double phase_sum = 0;
        for (const auto& [name, s] : phases->as_object()) {
          if (!s.is_number()) continue;
          phase_sum += s.as_double();
          std::printf("  phase %-10s %9.3f ms\n", name.c_str(),
                      s.as_double() * 1e3);
        }
        if (seconds > 0) {
          std::printf("  phase coverage: %.1f%% of end-to-end\n",
                      100.0 * phase_sum / seconds);
        }
      }
      const Value* stats = r.find("stats");
      if (stats != nullptr && stats->is_object()) {
        std::printf("  conflicts=%lld decisions=%lld restarts=%lld "
                    "models=%lld ground_atoms=%lld sat_clauses=%lld\n",
                    static_cast<long long>(num(*stats, "conflicts")),
                    static_cast<long long>(num(*stats, "decisions")),
                    static_cast<long long>(num(*stats, "restarts")),
                    static_cast<long long>(num(*stats, "models")),
                    static_cast<long long>(num(*stats, "ground_atoms")),
                    static_cast<long long>(num(*stats, "sat_clauses")));
      }
      std::printf("  builds=%lld reused=%lld splices=%lld\n",
                  static_cast<long long>(num(r, "builds")),
                  static_cast<long long>(num(r, "reused")),
                  static_cast<long long>(num(r, "splices")));
      const Value* spans = r.find("spans");
      if (spans != nullptr && spans->is_array() &&
          !spans->as_array().empty()) {
        std::printf("  span tree:\n");
        for (const Value& s : spans->as_array()) print_span(s, 0);
      }
    }
  }
  const Value* events = doc->find("events");
  if (events != nullptr && events->is_array()) {
    if (with_events) {
      std::printf("\n%-8s %12s %-4s %-16s %-8s %s\n", "seq", "t_us", "req",
                  "kind", "phase", "detail");
      for (const Value& ev : events->as_array()) {
        auto req = static_cast<std::int64_t>(num(ev, "req"));
        if (only_request != 0 && req != only_request) continue;
        std::printf("%-8lld %12.0f %-4lld %-16s %-8s %s\n",
                    static_cast<long long>(num(ev, "seq")), num(ev, "t_us"),
                    static_cast<long long>(req), str(ev, "kind").c_str(),
                    str(ev, "phase").c_str(), str(ev, "detail").c_str());
      }
    } else {
      std::printf("\n%zu event(s) in the window (use --events to print)\n",
                  events->as_array().size());
    }
  }
  return 0;
}

/// Phase begin/end pairs become "X" complete events (per-thread stacks);
/// everything else becomes a thread-scoped "i" instant in its phase's
/// category, the instant a live trace gets from Recorder::emit.
int flight_chrome(const std::string& file, const std::string& out_path) {
  auto doc = load(file);
  if (!doc) return 1;
  json::Array out;
  const Value* reqs = doc->find("requests");
  if (reqs != nullptr && reqs->is_array()) {
    for (const Value& r : reqs->as_array()) {
      double begin = num(r, "begin_us");
      double end = num(r, "end_us");
      out.push_back(chrome::complete_event(
          "request " +
              std::to_string(static_cast<long long>(num(r, "id"))) + ": " +
              str(r, "request"),
          "flight", begin, end > begin ? end - begin : 0.0,
          static_cast<std::int64_t>(num(r, "id"))));
    }
  }
  const Value* events = doc->find("events");
  struct Open {
    std::string phase;
    double t_us;
  };
  std::map<std::int64_t, std::vector<Open>> stacks;
  if (events != nullptr && events->is_array()) {
    for (const Value& ev : events->as_array()) {
      std::string kind = str(ev, "kind");
      auto tid = static_cast<std::int64_t>(num(ev, "tid"));
      double t = num(ev, "t_us");
      if (kind == "phase.begin") {
        stacks[tid].push_back({str(ev, "phase"), t});
        continue;
      }
      if (kind == "phase.end") {
        auto& stack = stacks[tid];
        if (stack.empty()) continue;  // begin fell off the ring
        Open o = stack.back();
        stack.pop_back();
        out.push_back(
            chrome::complete_event(o.phase, "flight", o.t_us, t - o.t_us, tid));
        continue;
      }
      json::Object args;
      args["req"] = static_cast<std::int64_t>(num(ev, "req"));
      args["a"] = static_cast<std::int64_t>(num(ev, "a"));
      args["b"] = static_cast<std::int64_t>(num(ev, "b"));
      std::string detail = str(ev, "detail");
      if (!detail.empty()) args["detail"] = detail;
      out.push_back(chrome::instant_event(kind, str(ev, "phase"), t, tid,
                                          std::move(args)));
    }
  }
  bool ok = write_output("flight", out_path, [&] {
    return pretty(chrome::document(std::move(out)));
  });
  return ok ? 0 : 1;
}

int cmd_flight(Args a) {
  if (!a.next()) a.fail("needs list, show or chrome");
  std::string sub = a.positional();
  std::vector<std::string> files;
  std::int64_t request = 0;
  bool events = false;
  std::string out;
  while (a.next()) {
    if (sub == "show" && a.is("--request")) {
      request = static_cast<std::int64_t>(a.count());
    } else if (sub == "show" && a.is("--events")) {
      events = true;
    } else if (sub == "chrome" && a.is("-o")) {
      out = a.value();
    } else {
      files.push_back(a.positional());
    }
  }
  if (sub == "list") {
    if (files.empty()) a.fail("list needs at least one file");
    return flight_list(files);
  }
  if (sub == "show") {
    if (files.size() != 1) a.fail("show needs exactly one file");
    return flight_show(files[0], request, events);
  }
  if (sub == "chrome") {
    if (files.size() != 1 || out.empty()) {
      a.fail("chrome needs FILE and -o OUT");
    }
    return flight_chrome(files[0], out);
  }
  a.fail("unknown flight command \"" + sub + "\"");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h") {
    usage(stdout);
    return 0;
  }
  Args args(cmd, argc - 2, argv + 2);
  try {
    if (cmd == "run") return cmd_run(std::move(args));
    if (cmd == "profile") return cmd_profile(std::move(args));
    if (cmd == "explain") return cmd_explain(std::move(args));
    if (cmd == "flight") return cmd_flight(std::move(args));
  } catch (const splice::Error& e) {
    std::fprintf(stderr, "splice %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "splice: unknown command \"%s\"\n", cmd.c_str());
  usage(stderr);
  return 2;
}
