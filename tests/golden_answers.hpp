// Golden answers for the reuse encoding: a canonical text rendering of what
// the concretizer answers for every RADIUSS root, plain and `^mpiabi`, under
// one (cache, encoding, splicing) configuration.  The committed files under
// tests/golden/ were rendered by the encoding this one replaced;
// concretizer_golden_test requires the current encoding to reproduce them
// byte for byte, and golden_answers_dump regenerates them.
#pragma once

#include <string>
#include <vector>

namespace splice::golden {

struct Config {
  std::string name;      ///< file stem under tests/golden/
  bool public_cache;     ///< 2,000-node public cache, else the local cache
  bool direct;           ///< direct encoding (splicing off)
  bool splicing;         ///< indirect encoding with splicing on
};

/// The six configurations: {local, public-2000} x {direct, indirect,
/// indirect + splicing}.
const std::vector<Config>& configs();

/// One block per request: the request line, then either "unsat" or the root
/// DAG hash, sorted node hashes, sorted build set, sorted splices and the
/// objective vector (zero-cost levels omitted: a level with no ground atoms
/// is absent from the model but means cost 0).
///
/// A splice renders as `parent:replaced->replacement`, without the hash of
/// the cached parent it was taken from: several cached builds of a parent
/// (e.g. against different mpich versions) can splice into the same result
/// node, so they are tied optima and the solver may pick any of them.  The
/// spliced result is pinned by the node hashes; the source is only checked
/// to be a cached build of the parent (else the splice renders `!uncached`).
std::string render(const Config& config);

/// The configurations the search golden covers: local-splice and
/// public2000-splice.
std::vector<Config> search_configs();

/// One line per request, in the order render() visits them:
///
///   <request>: sat_vars sat_clauses decisions conflicts propagations
///              models_enumerated loop_nogoods ground_rules ground_atoms
///
/// (one line, taken from the request's flight rollup, so unsatisfiable
/// requests report their refutation too).  Equal lines mean the SAT
/// translation and the CDCL search were the same, not just the answer: the
/// committed tests/golden/search-*.txt pin the search itself.
std::string render_search(const Config& config);

}  // namespace splice::golden
