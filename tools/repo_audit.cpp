// repo_audit: whole-repository static auditor CLI.
//
// Runs analysis::RepoAuditor over the built-in RADIUSS workload repository:
// constraint checks (unsatisfiable when= conditions, contradictory sibling
// deps), virtual/provider graph checks, splice-safety checks of every
// can_splice directive against binary symbol surfaces, and the concretizer
// encoding cross-check (asp::analyze over each package's compiled program).
// No solving happens; the audit is strictly offline.
//
//   repo_audit                          # audit RADIUSS, synthetic surfaces
//   repo_audit --cache /path/to/cache   # audit against real cached binaries
//   repo_audit --werror --json out.json # CI mode: fail on warnings, emit
//                                       # the repo-audit-v1 artifact
//   repo_audit --cache-dir .audit --jobs 8   # incremental + parallel: warm
//                                       # runs replay unchanged packages
//
// Exit status: 0 clean (infos allowed), 1 errors found (or warnings with
// --werror), 2 usage or audit failure.
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/audit.hpp"
#include "src/analysis/audit_cache.hpp"
#include "src/binary/buildcache.hpp"
#include "src/support/error.hpp"
#include "src/support/flight.hpp"
#include "src/support/parallel.hpp"
#include "src/support/strings.hpp"
#include "src/support/trace.hpp"
#include "src/workload/radiuss.hpp"
#include "src/workload/synthbin.hpp"

namespace {

constexpr const char* kUsage = R"(usage: repo_audit [options]

Statically audits the RADIUSS workload package repository: constraint,
provider, splice-safety and encoding checks.  See DESIGN.md §11 for the
check-ID taxonomy and severity policy.

options:
  --replicas N     add N mpiabi replica packages (the RQ4 scaling shape)
  --cache DIR      scan buildcache DIR for splice-safety binaries
                   (repeatable; adds to the synthetic surfaces)
  --no-synth       do not synthesize per-package surface binaries
  --no-splice      skip the splice-safety check group
  --no-encoding    skip the concretizer encoding cross-check
  --same-package   also report same-package version-splice suggestions
  --jobs N         run per-package checks on N worker threads (0 = one per
                   hardware thread, at most 1024; findings are
                   byte-identical for any N)
  --incremental    load/save the audit cache (default dir .splice-audit-cache)
  --cache-dir DIR  where the repo-audit-cache-v1 file lives (implies
                   --incremental); unchanged packages replay from the cache
  --json FILE      write the repo-audit-v1 JSON document to FILE
  --metrics-out FILE
                   write the Prometheus metrics exposition (incl.
                   audit.cache hit/miss/invalidated counters) to FILE
                   (--metrics is accepted as an alias)
  --flight FILE    write the per-check-group flight recording
                   (splice-flight-v1 JSON) to FILE
  --slow-ms N      flag check groups slower than N ms in the recording
  --quiet          print the findings only, one line each (no summary,
                   no cache statistics)
  --werror         exit 1 on warnings too
  -h, --help       this message
)";

}  // namespace

int main(int argc, char** argv) {
  std::size_t replicas = 0;
  std::vector<std::string> cache_dirs;
  bool incremental = false;
  std::string audit_cache_dir = ".splice-audit-cache";
  std::string json_path;
  std::string metrics_path;
  std::string flight_path;
  double slow_ms = 0;
  bool synth = true;
  bool quiet = false;
  bool werror = false;
  splice::analysis::AuditOptions opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "repo_audit: " << flag << " needs an argument\n";
        std::exit(2);
      }
      return argv[++i];
    };
    // Numeric values parse strictly; a malformed one is a usage error.
    auto number = [&](const char* flag, auto parse, const char* expected) {
      std::string text = value(flag);
      auto n = parse(text);
      if (!n) {
        std::cerr << "repo_audit: " << flag << ": expected " << expected
                  << ", got \"" << text << "\" (see repo_audit --help)\n";
        std::exit(2);
      }
      return *n;
    };
    auto count = [&](const char* flag) {
      return static_cast<std::size_t>(
          number(flag, splice::parse_count, "a non-negative integer"));
    };
    auto jobs = [](std::string_view text) {
      std::optional<std::uint64_t> n = splice::parse_count(text);
      return n && *n <= splice::kMaxJobs ? n : std::nullopt;
    };
    if (arg == "-h" || arg == "--help") {
      std::cout << kUsage;
      return 0;
    } else if (arg == "--replicas") {
      replicas = count("--replicas");
    } else if (arg == "--cache") {
      cache_dirs.push_back(value("--cache"));
    } else if (arg == "--no-synth") {
      synth = false;
    } else if (arg == "--no-splice") {
      opts.splice_checks = false;
    } else if (arg == "--no-encoding") {
      opts.encoding_checks = false;
    } else if (arg == "--same-package") {
      opts.suggest_same_package = true;
    } else if (arg == "--jobs") {
      opts.jobs = static_cast<std::size_t>(
          number("--jobs", jobs, "a non-negative integer up to 1024"));
    } else if (arg == "--incremental") {
      incremental = true;
    } else if (arg == "--cache-dir") {
      audit_cache_dir = value("--cache-dir");
      incremental = true;
    } else if (arg == "--json") {
      json_path = value("--json");
    } else if (arg == "--metrics-out" || arg == "--metrics") {
      metrics_path = value("--metrics-out");
    } else if (arg == "--flight") {
      flight_path = value("--flight");
    } else if (arg == "--slow-ms") {
      slow_ms = number("--slow-ms", splice::parse_non_negative,
                       "a non-negative number");
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--werror") {
      werror = true;
    } else {
      std::cerr << "repo_audit: unknown option '" << arg << "'\n" << kUsage;
      return 2;
    }
  }

  if (slow_ms > 0) {
    splice::flight::RecorderOptions ropts;
    ropts.slow_ms = slow_ms;
    splice::flight::Recorder::global().configure(ropts);
  }

  try {
    splice::repo::Repository repo = splice::workload::radiuss_repo(replicas);
    splice::analysis::RepoAuditor auditor(repo, opts);
    if (opts.splice_checks && synth) {
      for (auto& [spec, bin] : splice::workload::synthetic_surface_binaries(
               repo, splice::workload::radiuss_abi_surface)) {
        auditor.add_binary(spec, std::move(bin));
      }
    }
    for (const std::string& dir : cache_dirs) {
      splice::binary::BuildCache cache{std::filesystem::path(dir)};
      auditor.scan_buildcache(cache);
    }

    std::optional<splice::analysis::AuditCache> audit_cache;
    if (incremental) {
      audit_cache = splice::analysis::AuditCache::load(audit_cache_dir);
    }
    splice::analysis::AuditReport report =
        auditor.run(audit_cache ? &*audit_cache : nullptr);
    if (audit_cache && !audit_cache->save(audit_cache_dir)) {
      std::cerr << "repo_audit: cannot write audit cache to '"
                << audit_cache_dir << "'\n";
      return 2;
    }

    // --quiet prints the findings and nothing else; default mode adds the
    // summary line on stdout and, when incremental, the cache statistics on
    // stderr (stdout stays byte-identical between cold and warm runs).
    if (quiet) {
      std::cout << report.findings_str();
    } else {
      std::cout << report.str();
      if (incremental) {
        std::cerr << "audit cache: " << report.cache_hits << " hit(s), "
                  << report.cache_misses << " miss(es), "
                  << report.cache_invalidated << " invalidated, "
                  << report.rechecked_tasks.size() << " task(s) re-checked, "
                  << report.workers_used << " worker(s)\n";
      }
    }

    if (!json_path.empty()) {
      std::ofstream out(json_path);
      if (!out) {
        std::cerr << "repo_audit: cannot write '" << json_path << "'\n";
        return 2;
      }
      out << report.to_json().dump_pretty() << "\n";
    }

    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      if (!out) {
        std::cerr << "repo_audit: cannot write '" << metrics_path << "'\n";
        return 2;
      }
      out << splice::trace::Tracer::global().metrics().metrics_text();
    }

    // Per-check-group wall-time accounting: RepoAuditor::run() opened one
    // flight request per group, so the recording breaks the audit down.
    if (!flight_path.empty() &&
        !splice::flight::Recorder::global().write_dump(flight_path,
                                                       "manual")) {
      std::cerr << "repo_audit: cannot write '" << flight_path << "'\n";
      return 2;
    }

    using splice::analysis::Severity;
    if (report.has_errors()) return 1;
    if (werror && report.count(Severity::Warning) > 0) return 1;
    return 0;
  } catch (const splice::Error& e) {
    std::cerr << "repo_audit: " << e.what() << "\n";
    return 2;
  }
}
