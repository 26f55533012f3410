#include "perfbench/inputs.hpp"

#include <fstream>
#include <set>
#include <stdexcept>

#include "src/binary/buildcache.hpp"
#include "src/support/json.hpp"
#include "src/workload/caches.hpp"
#include "src/workload/radiuss.hpp"
#include "src/workload/resolver.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using splice::spec::Spec;

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<RoundRequest> round_requests() {
  std::vector<RoundRequest> out;
  for (const std::string& root : splice::workload::radiuss_roots()) {
    RoundRequest r;
    r.root = root;
    r.splice = splice::workload::depends_on_mpi(root);
    r.request = splice::concretize::Request(r.splice ? root + " ^mpiabi" : root);
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<std::size_t> round_order(std::uint64_t seed, std::size_t round,
                                     std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng(seed * 1000003ULL + round);
  shuffle(order, rng);
  return order;
}

std::vector<Spec> core_stack(const splice::repo::Repository& repo) {
  splice::workload::SimpleResolver resolver(repo);
  splice::workload::ResolveChoices choices;
  choices.providers["mpi"] = "mpich";
  std::vector<Spec> out;
  for (const std::string& root : splice::workload::radiuss_roots()) {
    out.push_back(resolver.resolve(root, choices));
  }
  return out;
}

std::vector<Spec> draw_cache(const splice::repo::Repository& repo,
                             std::uint64_t seed, std::size_t target_nodes) {
  // Draw from a pool a tenth larger than the target: most configurations
  // are in every seed's cache, so the seed perturbs the cache's contents
  // without changing its size or shape.
  std::size_t pool_nodes = target_nodes + target_nodes / 10;
  std::vector<Spec> pool = splice::workload::public_cache_specs(repo, pool_nodes);
  Rng rng(seed ^ 0x5eedcac4eULL);
  shuffle(pool, rng);

  std::vector<Spec> out = core_stack(repo);
  std::set<std::string> roots;
  std::set<std::string> nodes;
  for (const Spec& s : out) {
    roots.insert(s.dag_hash());
    for (const auto& n : s.nodes()) nodes.insert(n.hash);
  }
  for (Spec& s : pool) {
    if (nodes.size() >= target_nodes) break;
    if (!roots.insert(s.dag_hash()).second) continue;
    for (const auto& n : s.nodes()) nodes.insert(n.hash);
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<Spec> new_entries(const std::vector<Spec>& roots,
                              std::vector<std::string>* known) {
  std::set<std::string> seen(known->begin(), known->end());
  std::vector<Spec> out;
  for (const Spec& s : roots) {
    for (std::size_t i : s.topological_order()) {
      if (!seen.insert(s.nodes()[i].hash).second) continue;
      known->push_back(s.nodes()[i].hash);
      out.push_back(s.subdag(i));
    }
  }
  return out;
}

namespace {
void write_file(const fs::path& path, const std::string& data) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}
}  // namespace

fs::path ensure_cache_dir(const splice::repo::Repository& repo,
                          const fs::path& inputs_dir, std::uint64_t seed,
                          std::size_t nodes) {
  fs::path dir = inputs_dir / ("cache-" + std::to_string(nodes) + "-seed" +
                               std::to_string(seed));
  fs::path done = dir / "complete";
  if (fs::exists(done)) return dir;
  fs::remove_all(dir);
  std::vector<std::string> known;
  std::vector<Spec> entries = new_entries(draw_cache(repo, seed, nodes), &known);
  // BuildCache::push rewrites the whole index on every call, which makes
  // filling a 5,000-entry cache take ~20 s.  Write the documented on-disk
  // layout (buildcache.hpp) in one pass instead, then open it with
  // BuildCache to prove it reads back whole and hash-checked.
  splice::json::Array index;
  for (const Spec& e : entries) {
    write_file(dir / "specs" / (e.dag_hash() + ".spec.json"), e.to_json().dump_pretty());
    splice::json::Value entry;
    entry["hash"] = e.dag_hash();
    entry["has_blob"] = false;
    index.push_back(std::move(entry));
  }
  splice::json::Value doc;
  doc["version"] = 1;
  doc["entries"] = splice::json::Value(std::move(index));
  write_file(dir / "index.json", doc.dump());
  if (splice::binary::BuildCache(dir).size() != entries.size()) {
    throw std::runtime_error("generated buildcache " + dir.string() +
                             " does not read back whole");
  }
  std::ofstream(done) << "ok\n";
  return dir;
}

}  // namespace perfbench
