#include "tests/golden_answers.hpp"

#include <algorithm>
#include <set>

#include "src/concretize/concretizer.hpp"
#include "src/support/error.hpp"
#include "src/workload/caches.hpp"
#include "src/workload/radiuss.hpp"

namespace splice::golden {

const std::vector<Config>& configs() {
  static const std::vector<Config> all = {
      {"local-direct", false, true, false},
      {"local-indirect", false, false, false},
      {"local-splice", false, false, true},
      {"public2000-direct", true, true, false},
      {"public2000-indirect", true, false, false},
      {"public2000-splice", true, false, true},
  };
  return all;
}

namespace {

std::string join_sorted(std::vector<std::string> items) {
  std::sort(items.begin(), items.end());
  std::string out;
  for (const std::string& s : items) out += " " + s;
  return out;
}

}  // namespace

std::string render(const Config& config) {
  repo::Repository repo = workload::radiuss_repo(0);
  concretize::ConcretizerOptions opts;
  opts.encoding = config.direct ? concretize::ReuseEncoding::Direct
                                : concretize::ReuseEncoding::Indirect;
  opts.enable_splicing = config.splicing;
  concretize::Concretizer c(repo, opts);
  std::vector<spec::Spec> cache = config.public_cache
                                      ? workload::public_cache_specs(repo, 2000)
                                      : workload::local_cache_specs(repo);
  c.add_reusable_all(cache);
  std::set<std::string> cached;  // "name/hash" of every cached node
  for (const spec::Spec& s : cache) {
    for (const auto& n : s.nodes()) cached.insert(n.name + "/" + n.hash);
  }

  std::string out;
  for (const std::string& root : workload::radiuss_roots()) {
    for (const std::string& text : {root, root + " ^mpiabi"}) {
      out += "request " + text + "\n";
      concretize::ConcretizeResult r;
      try {
        r = c.concretize(concretize::Request(text));
      } catch (const UnsatisfiableError&) {
        out += "  unsat\n\n";
        continue;
      }
      std::vector<std::string> nodes;
      for (const auto& n : r.spec.nodes()) nodes.push_back(n.name + "/" + n.hash);
      std::vector<std::string> splices;
      for (const auto& s : r.splices) {
        std::string source = s.parent_name + "/" + s.parent_hash;
        splices.push_back(s.parent_name + (cached.count(source) ? "" : "!uncached") +
                          ":" + s.replaced_name + "->" + s.replacement_name);
      }
      out += "  dag " + r.spec.dag_hash() + "\n";
      out += "  nodes" + join_sorted(std::move(nodes)) + "\n";
      out += "  builds" + join_sorted(r.build_names) + "\n";
      out += "  splices" + join_sorted(std::move(splices)) + "\n";
      out += "  objectives";
      for (const auto& [priority, cost] : r.objectives) {
        if (cost != 0) {
          out += " " + std::to_string(cost) + "@" + std::to_string(priority);
        }
      }
      out += "\n\n";
    }
  }
  return out;
}

}  // namespace splice::golden
