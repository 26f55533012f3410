// splice_profile: answer "why is my concretization slow?" for a RADIUSS
// workload request.  Compiles, grounds and solves with full cost profiling
// enabled, then folds grounding + CDCL work back onto the package directives
// that generated it (schema "splice-profile-v1").
//
// The profiling walkthrough from README.md:
//
//   tools/splice_profile --splice --json profile.json --folded profile.folded
//       "visit ^mpiabi"          (one command line)
//
// Any binary linking splice_concretize honours SPLICE_PROFILE=1 for
// always-on per-solve profile metrics instead; this tool is the explicit
// front door with workload setup and human-readable cost tables.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/concretize/concretizer.hpp"
#include "src/support/error.hpp"
#include "src/workload/caches.hpp"
#include "src/workload/radiuss.hpp"

namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: splice_profile [options] [root-spec ...]\n"
               "\n"
               "Concretize the root-specs (together, as one environment) "
               "against the\nsynthetic RADIUSS workload with cost profiling "
               "enabled and report the\nhottest package directives and "
               "encoding rules.\n"
               "\n"
               "options:\n"
               "  --json FILE    splice-profile-v1 JSON report\n"
               "  --folded FILE  Brendan-Gregg folded stacks "
               "(flamegraph.pl input)\n"
               "  --top N        rows per cost table in the console summary "
               "(default: 10)\n"
               "  --splice       enable splicing (indirect encoding)\n"
               "  --direct       old-spack direct encoding, splicing off\n"
               "  --public N     reuse against a synthetic public cache of "
               "~N node specs\n"
               "                 (default: the local RADIUSS cache)\n"
               "  --replicas N   add N mpiabi replica packages (RQ4 shape)\n"
               "  --no-cache     no reusable specs at all\n"
               "  --help         this text\n"
               "\n"
               "default root-spec: \"visit ^mpiabi\" with --splice, "
               "\"visit ^mpich\" otherwise\n");
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string folded_path;
  std::size_t top = 10;
  bool enable_splicing = false;
  bool direct = false;
  bool no_cache = false;
  std::size_t public_nodes = 0;
  std::size_t replicas = 0;
  std::vector<std::string> roots;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "splice_profile: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else if (arg == "--json") {
      json_path = value("--json");
    } else if (arg == "--folded") {
      folded_path = value("--folded");
    } else if (arg == "--top") {
      top = std::strtoull(value("--top"), nullptr, 10);
    } else if (arg == "--splice") {
      enable_splicing = true;
    } else if (arg == "--direct") {
      direct = true;
    } else if (arg == "--no-cache") {
      no_cache = true;
    } else if (arg == "--public") {
      public_nodes = std::strtoull(value("--public"), nullptr, 10);
    } else if (arg == "--replicas") {
      replicas = std::strtoull(value("--replicas"), nullptr, 10);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "splice_profile: unknown option %s\n", arg.c_str());
      usage(stderr);
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (direct && enable_splicing) {
    std::fprintf(stderr, "splice_profile: --direct and --splice conflict\n");
    return 2;
  }
  if (roots.empty()) {
    roots.push_back(enable_splicing ? "visit ^mpiabi" : "visit ^mpich");
  }

  using namespace splice;

  concretize::ConcretizerOptions opts;
  opts.encoding = direct ? concretize::ReuseEncoding::Direct
                         : concretize::ReuseEncoding::Indirect;
  opts.enable_splicing = enable_splicing;

  try {
    repo::Repository repo = workload::radiuss_repo(replicas);
    std::vector<spec::Spec> cache;
    if (!no_cache) {
      cache = public_nodes > 0
                  ? workload::public_cache_specs(repo, public_nodes)
                  : workload::local_cache_specs(repo);
    }

    std::printf("splice_profile: %zu root(s), encoding=%s, splicing=%s, "
                "cache=%zu node specs\n",
                roots.size(), direct ? "direct" : "indirect",
                enable_splicing ? "on" : "off",
                workload::distinct_nodes(cache));

    concretize::Concretizer c(repo, opts);
    for (const auto& s : cache) c.add_reusable(s);
    std::vector<concretize::Request> requests;
    requests.reserve(roots.size());
    for (const std::string& root : roots) {
      requests.emplace_back(root);
    }
    concretize::ProfileReport report = c.profile(requests);

    std::fputs(report.text(top).c_str(), stdout);

    bool ok = true;
    if (!json_path.empty()) {
      if (write_file(json_path, report.to_json().dump_pretty() + "\n")) {
        std::printf("splice_profile: wrote %s\n", json_path.c_str());
      } else {
        std::fprintf(stderr, "splice_profile: cannot write %s\n",
                     json_path.c_str());
        ok = false;
      }
    }
    if (!folded_path.empty()) {
      if (write_file(folded_path, report.folded())) {
        std::printf("splice_profile: wrote %s\n", folded_path.c_str());
      } else {
        std::fprintf(stderr, "splice_profile: cannot write %s\n",
                     folded_path.c_str());
        ok = false;
      }
    }
    return ok ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "splice_profile: FAILED: %s\n", e.what());
    return 1;
  }
}
