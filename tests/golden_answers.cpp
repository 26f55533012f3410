#include "tests/golden_answers.hpp"

#include <algorithm>
#include <set>

#include "src/concretize/concretizer.hpp"
#include "src/support/error.hpp"
#include "src/support/flight.hpp"
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

/// Every RADIUSS root, plain and `^mpiabi`.
std::vector<std::string> requests() {
  std::vector<std::string> out;
  for (const std::string& root : workload::radiuss_roots()) {
    out.push_back(root);
    out.push_back(root + " ^mpiabi");
  }
  return out;
}

std::vector<spec::Spec> cache_of(const repo::Repository& repo,
                                 const Config& config) {
  return config.public_cache ? workload::public_cache_specs(repo, 2000)
                             : workload::local_cache_specs(repo);
}

concretize::Concretizer concretizer_of(const repo::Repository& repo,
                                       const Config& config,
                                       const std::vector<spec::Spec>& cache) {
  concretize::ConcretizerOptions opts;
  opts.encoding = config.direct ? concretize::ReuseEncoding::Direct
                                : concretize::ReuseEncoding::Indirect;
  opts.enable_splicing = config.splicing;
  concretize::Concretizer c(repo, opts);
  c.add_reusable_all(cache);
  return c;
}

}  // namespace

std::string render(const Config& config) {
  repo::Repository repo = workload::radiuss_repo(0);
  std::vector<spec::Spec> cache = cache_of(repo, config);
  concretize::Concretizer c = concretizer_of(repo, config, cache);
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

std::vector<Config> search_configs() {
  std::vector<Config> out;
  for (const Config& config : configs()) {
    if (config.splicing) out.push_back(config);
  }
  return out;
}

std::string render_search(const Config& config) {
  repo::Repository repo = workload::radiuss_repo(0);
  concretize::Concretizer c = concretizer_of(repo, config, cache_of(repo, config));
  flight::Recorder& recorder = flight::Recorder::global();
  std::string out;
  for (const std::string& text : requests()) {
    concretize::Request request(text);
    try {
      c.concretize(request);
    } catch (const UnsatisfiableError&) {
    }
    std::vector<flight::RequestAccount> accounts = recorder.requests();
    if (accounts.empty() || accounts.back().text != request.root.str()) {
      throw Error("render_search: no flight account for " + text);
    }
    const flight::Rollup& r = accounts.back().rollup;
    out += text + ":";
    for (std::uint64_t n : {r.sat_vars, r.sat_clauses, r.decisions,
                            r.conflicts, r.propagations, r.models,
                            r.loop_nogoods, r.ground_rules, r.ground_atoms}) {
      out += " " + std::to_string(n);
    }
    out += "\n";
  }
  return out;
}

}  // namespace splice::golden
