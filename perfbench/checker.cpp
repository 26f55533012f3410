#include "perfbench/checker.hpp"

#include <set>

namespace perfbench {

using splice::spec::Spec;

Verdict check_answer(const RoundRequest& req,
                     const splice::concretize::ConcretizeResult& result,
                     const splice::binary::BuildCache& cache) {
  Verdict v;
  auto fail = [&](std::string what) { v.problems.push_back(req.root + ": " + what); };
  const Spec& s = result.spec;
  if (s.empty() || !s.is_concrete()) {
    fail("answer is not a concrete spec");
    return v;
  }

  // Hashes must be the hashes of the content they label.
  Spec rehashed = s;
  rehashed.finalize_concrete();
  for (std::size_t i = 0; i < s.nodes().size(); ++i) {
    if (rehashed.nodes()[i].hash != s.nodes()[i].hash) {
      fail("node " + s.nodes()[i].name + " carries a stale hash");
    }
  }

  if (s.root().name != req.root || !s.satisfies(req.request.root)) {
    fail("root does not satisfy the request " + req.request.root.str());
  }

  std::set<std::string> forbidden(req.request.forbidden.begin(),
                                  req.request.forbidden.end());
  forbidden.insert({"mpich", "openmpi"});
  if (!req.splice) forbidden.insert("mpiabi");
  for (const auto& n : s.nodes()) {
    if (forbidden.count(n.name) > 0) fail("forbidden package " + n.name + " present");
  }

  // What the answer must build, derived from the DAG and the cache alone.
  std::set<std::string> must_build;
  std::size_t spliced = 0;
  for (const auto& n : s.nodes()) {
    if (n.build_spec) {
      ++spliced;
      if (!cache.contains(n.build_spec->dag_hash())) {
        fail("spliced node " + n.name + " has an uncached build spec");
      }
    } else if (!cache.contains(n.hash)) {
      must_build.insert(n.name);
    }
  }
  v.builds = must_build.size();
  std::set<std::string> expected;
  if (req.splice) expected.insert("mpiabi");
  if (must_build != expected) {
    fail("builds " + std::to_string(must_build.size()) +
         " nodes from source, known answer builds " +
         std::to_string(expected.size()));
  }
  std::set<std::string> claimed(result.build_names.begin(), result.build_names.end());
  if (claimed != must_build) fail("build_names disagree with the DAG");
  for (const std::string& h : result.reused_hashes) {
    if (!cache.contains(h)) fail("reused hash " + h + " is not in the buildcache");
  }

  if (req.splice && (spliced == 0 || result.splices.empty())) {
    fail("no spliced solution (RQ2)");
  }
  if (!req.splice && (spliced != 0 || !result.splices.empty())) {
    fail("control request was spliced");
  }
  return v;
}

}  // namespace perfbench
