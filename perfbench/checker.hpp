// The known-answer checker.
//
// Every cache the benchmark builds contains the default mpich stack, so the
// answer to each round request is known without trusting the concretizer:
// a `<root> ^mpiabi` request reuses every cached node, splices mpich out,
// and builds exactly {mpiabi}; a control request reuses everything and
// builds nothing (the paper's RQ2).  The checker derives what an answer
// must build from the answer's DAG and the buildcache alone, then also
// holds the concretizer's own bookkeeping (build_names, reused_hashes,
// splices) to it.
#pragma once

#include <string>
#include <vector>

#include "perfbench/inputs.hpp"
#include "src/binary/buildcache.hpp"
#include "src/concretize/concretizer.hpp"

namespace perfbench {

struct Verdict {
  std::vector<std::string> problems;  ///< empty when the answer is correct
  std::size_t builds = 0;  ///< nodes the answer must build from source

  bool ok() const { return problems.empty(); }
};

/// Check `result` as the answer to `req` against the buildcache it was
/// concretized from.
Verdict check_answer(const RoundRequest& req,
                     const splice::concretize::ConcretizeResult& result,
                     const splice::binary::BuildCache& cache);

}  // namespace perfbench
