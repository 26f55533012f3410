// Seeded inputs of the pipeline benchmark.
//
// The program under test receives only what these functions generate: the
// request round, its per-round order, and the root configurations that fill
// the public buildcache.  Every draw is a pure function of the seed, so the same
// seed gives the same inputs on any machine (the RNG and shuffle are our
// own, not the standard library's implementation-defined ones).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "src/concretize/concretizer.hpp"
#include "src/repo/repository.hpp"
#include "src/spec/spec.hpp"

namespace perfbench {

/// splitmix64: small, fast, and identical everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

/// One request of the round plus its known answer's shape.
struct RoundRequest {
  std::string root;
  /// `<root> ^mpiabi`: the answer must splice and build exactly {mpiabi}.
  /// Otherwise the no-splice control: the answer builds nothing.
  bool splice = false;
  splice::concretize::Request request;
};

/// The 32 RADIUSS roots in canonical order: the 17 MPI roots as
/// `<root> ^mpiabi` (forced splice), the others as plain `<root>`.
std::vector<RoundRequest> round_requests();

/// The order in which round `round` of a run with `seed` issues requests.
std::vector<std::size_t> round_order(std::uint64_t seed, std::size_t round,
                                     std::size_t n);

/// The default mpich configuration of every RADIUSS root.  Every cache the
/// benchmark builds contains it, which is what fixes the known answer:
/// reuse everything, splice mpich -> mpiabi, build only mpiabi.
std::vector<splice::spec::Spec> core_stack(const splice::repo::Repository& repo);

/// The core stack plus a seeded draw from the synthetic public-cache
/// configurations, added whole until at least `target_nodes` distinct node
/// specs exist.
std::vector<splice::spec::Spec> draw_cache(const splice::repo::Repository& repo,
                                           std::uint64_t seed,
                                           std::size_t target_nodes);

/// Every node sub-DAG of `roots` not in `known`, in a stable order; adds
/// their hashes to `known`.  These are the entries a buildcache holds.
std::vector<splice::spec::Spec> new_entries(
    const std::vector<splice::spec::Spec>& roots,
    std::vector<std::string>* known);

/// An index-only buildcache directory holding `draw_cache(seed, nodes)`,
/// generated under `inputs_dir` on first use and reused for the same
/// (seed, nodes) afterwards.  Generation is input preparation, not part of
/// any timed phase.
std::filesystem::path ensure_cache_dir(const splice::repo::Repository& repo,
                                       const std::filesystem::path& inputs_dir,
                                       std::uint64_t seed, std::size_t nodes);

}  // namespace perfbench
