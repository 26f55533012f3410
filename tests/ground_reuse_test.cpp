// Per-slice ground reuse (DESIGN.md §4.1): a request grounds by resuming
// its slice's frozen base from the request's delta.  Whatever the cache
// state, the answer must not change: warm answers equal cold answers and a
// fresh Concretizer's, profile() and explain_splice() pick the same optimum
// as concretize(), a 4-worker pool answers like a 1-worker one, and
// add_reusable drops every base.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/concretize/concretizer.hpp"
#include "src/concretize/pool.hpp"
#include "src/support/error.hpp"
#include "src/support/trace.hpp"
#include "src/workload/caches.hpp"
#include "src/workload/radiuss.hpp"

namespace splice::concretize {
namespace {

struct CacheSetup {
  const char* name;
  std::size_t public_nodes;  ///< 0: the local cache
  std::size_t replicas;      ///< mpiabi replica packages
};

void PrintTo(const CacheSetup& s, std::ostream* os) { *os << s.name; }

ConcretizerOptions splice_opts() {
  ConcretizerOptions o;
  o.encoding = ReuseEncoding::Indirect;
  o.enable_splicing = true;
  return o;
}

/// Everything an answer pins: DAG hashes, builds, the splices with the
/// cached parent they start from (ties included), and the objectives.
std::string render(const ConcretizeResult& r) {
  std::string out = r.spec.root().hash + " nodes:";
  std::vector<std::string> nodes;
  for (const spec::SpecNode& n : r.spec.nodes()) {
    nodes.push_back(n.name + "/" + n.hash);
  }
  std::sort(nodes.begin(), nodes.end());
  for (const std::string& n : nodes) out += " " + n;
  std::vector<std::string> builds = r.build_names;
  std::sort(builds.begin(), builds.end());
  out += " builds:";
  for (const std::string& b : builds) out += " " + b;
  out += " splices:";
  for (const SpliceDecision& s : r.splices) {
    out += " " + s.parent_name + "/" + s.parent_hash + ":" + s.replaced_name +
           "->" + s.replacement_name;
  }
  out += " costs:";
  for (const auto& [priority, cost] : r.objectives) {
    out += " " + std::to_string(cost) + "@" + std::to_string(priority);
  }
  return out;
}

std::string answer(const Concretizer& c, const Request& r) {
  try {
    return render(c.concretize(r));
  } catch (const UnsatisfiableError&) {
    return "unsat";
  }
}

/// The RADIUSS roots (MPI roots spliced onto mpiabi), plus requests whose
/// deltas reach the base: an os, a target and a version range no cache
/// entry or directive mentions, and forbidden packages (one unsat).
std::vector<Request> requests() {
  std::vector<Request> out;
  for (const std::string& root : workload::radiuss_roots()) {
    out.emplace_back(workload::depends_on_mpi(root) ? root + " ^mpiabi"
                                                    : root);
  }
  out.emplace_back("hdf5 os=centos8");
  out.emplace_back("zlib target=aarch64");
  out.emplace_back("cmake@3.23.1");
  out.emplace_back("zstd@1.5.2:1.5.4");
  Request rq4("visit ^mpiabi");
  rq4.forbidden = {"mpich"};
  out.push_back(rq4);
  Request none("hdf5");
  none.forbidden = {"zlib"};
  out.push_back(none);
  return out;
}

class GroundReuse : public ::testing::TestWithParam<CacheSetup> {
 protected:
  void SetUp() override {
    const CacheSetup& s = GetParam();
    repo_ = std::make_unique<repo::Repository>(workload::radiuss_repo(s.replicas));
    cache_ = s.public_nodes > 0
                 ? workload::public_cache_specs(*repo_, s.public_nodes)
                 : workload::local_cache_specs(*repo_);
  }

  Concretizer fresh() const {
    Concretizer c(*repo_, splice_opts());
    c.add_reusable_all(cache_);
    return c;
  }

  std::unique_ptr<repo::Repository> repo_;
  std::vector<spec::Spec> cache_;
};

TEST_P(GroundReuse, WarmEqualsColdEqualsFresh) {
  std::vector<Request> reqs = requests();
  Concretizer shared = fresh();
  std::vector<std::string> cold;
  for (const Request& r : reqs) cold.push_back(answer(shared, r));
  std::size_t builds = shared.compile_cache_builds();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    SCOPED_TRACE(reqs[i].root.str());
    EXPECT_EQ(answer(shared, reqs[i]), cold[i]) << "warm";
    Concretizer alone = fresh();
    EXPECT_EQ(answer(alone, reqs[i]), cold[i]) << "fresh";
    EXPECT_EQ(alone.compile_cache_builds(), 1u);
  }
  EXPECT_EQ(shared.compile_cache_builds(), builds) << "warm pass rebuilt";
  EXPECT_EQ(std::count(cold.begin(), cold.end(), "unsat"), 1);
}

TEST_P(GroundReuse, ProfileAndExplainPickTheSameOptimum) {
  Concretizer c = fresh();
  for (const char* text : {"visit ^mpiabi", "hdf5 os=centos8", "zlib"}) {
    SCOPED_TRACE(text);
    Request r(text);
    ConcretizeResult want = c.concretize(r);
    SpliceDiagnosis d = c.explain_splice({r});
    ASSERT_TRUE(d.sat);
    EXPECT_EQ(d.costs, want.objectives);
    std::set<std::tuple<std::string, std::string, std::string>> executed;
    for (const SpliceCandidateTrace& cand : d.candidates) {
      if (cand.chosen) {
        executed.emplace(cand.parent_hash, cand.dependency, cand.replacement);
      }
    }
    std::set<std::tuple<std::string, std::string, std::string>> spliced;
    for (const SpliceDecision& s : want.splices) {
      spliced.emplace(s.parent_hash, s.replaced_name, s.replacement_name);
    }
    EXPECT_EQ(executed, spliced);
    ProfileReport p = c.profile({r});
    ASSERT_TRUE(p.sat);
    EXPECT_EQ(p.stats.ground.rules, want.stats.ground.rules);
    EXPECT_EQ(p.stats.ground.possible_atoms, want.stats.ground.possible_atoms);
    EXPECT_EQ(p.stats.sat_clauses, want.stats.sat_clauses);
    EXPECT_EQ(p.stats.decisions, want.stats.decisions);
    EXPECT_EQ(p.stats.models_enumerated, want.stats.models_enumerated);
  }
}

TEST_P(GroundReuse, PoolOfFourAnswersLikeOne) {
  std::vector<Request> reqs = requests();
  auto run = [&](std::size_t jobs) {
    Concretizer c = fresh();
    std::vector<std::string> out;
    for (const BatchItem& item :
         ConcretizerPool(c, PoolOptions{jobs}).concretize_batch(reqs)) {
      out.push_back(item.ok ? render(item.result) : "failed: " + item.error);
    }
    return out;
  };
  EXPECT_EQ(run(4), run(1));
}

TEST_P(GroundReuse, AddReusableDropsEveryBase) {
  std::vector<Request> reqs = requests();
  std::size_t half = cache_.size() / 2;
  std::vector<spec::Spec> first(cache_.begin(), cache_.begin() + half);
  std::vector<spec::Spec> rest(cache_.begin() + half, cache_.end());

  Concretizer c(*repo_, splice_opts());
  c.add_reusable_all(first);
  Request probe(reqs.front());
  answer(c, probe);
  answer(c, probe);  // warm
  std::size_t before = c.compile_cache_builds();
  c.add_reusable_all(rest);
  EXPECT_EQ(c.compile_cache_builds(), before) << "bases are rebuilt lazily";
  std::string after = answer(c, probe);
  EXPECT_EQ(c.compile_cache_builds(), before + 1);
  Concretizer full = fresh();
  EXPECT_EQ(after, answer(full, probe));
  // The requests whose deltas reach into the base (the last six).
  for (auto it = reqs.end() - 6; it != reqs.end(); ++it) {
    SCOPED_TRACE(it->root.str());
    EXPECT_EQ(answer(c, *it), answer(full, *it));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Caches, GroundReuse,
    ::testing::Values(CacheSetup{"local", 0, 0}, CacheSetup{"public2000", 2000, 0},
                      CacheSetup{"replicas20", 0, 20}),
    [](const ::testing::TestParamInfo<CacheSetup>& param) {
      return std::string(param.param.name);
    });

/// Every cache build grounds its base once and reports the snapshot size.
TEST(GroundReuseSize, SliceBuildReportsBaseBytes) {
  trace::Tracer& tracer = trace::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  repo::Repository repo = workload::radiuss_repo();
  Concretizer c(repo, splice_opts());
  c.add_reusable_all(workload::local_cache_specs(repo));
  c.concretize(Request("visit ^mpiabi"));
  c.concretize(Request("visit ^mpiabi"));
  tracer.set_enabled(false);
  EXPECT_EQ(c.compile_cache_builds(), 1u);
  std::int64_t bytes = 0;
  std::size_t builds = 0;
  json::Value doc = tracer.chrome_trace();
  for (const json::Value& ev : doc.find("traceEvents")->as_array()) {
    if (ev.find("name")->as_string() != "build_cache") continue;
    ++builds;
    const json::Value* args = ev.find("args");
    ASSERT_NE(args, nullptr);
    ASSERT_NE(args->find("base_bytes"), nullptr);
    bytes = args->find("base_bytes")->as_int();
  }
  EXPECT_EQ(builds, 1u);
  EXPECT_GT(bytes, 0);
  EXPECT_EQ(tracer.metrics().counter("concretize/ground_base_bytes"), bytes);
  tracer.clear();
  tracer.metrics().clear();
}

}  // namespace
}  // namespace splice::concretize
