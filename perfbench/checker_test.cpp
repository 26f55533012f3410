// The known-answer checker accepts the concretizer's real answers and
// rejects planted bad ones, one check at a time; the seeded inputs repeat
// exactly for a seed.
//
//   cmake --build .bench_build/cmake --target checker_test
//   .bench_build/cmake/checker_test
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "perfbench/checker.hpp"
#include "perfbench/inputs.hpp"
#include "src/binary/database.hpp"
#include "src/binary/installer.hpp"
#include "src/support/error.hpp"
#include "src/workload/radiuss.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using splice::concretize::ConcretizeResult;
using splice::concretize::Concretizer;

RoundRequest request_for(const std::string& root) {
  for (RoundRequest& r : round_requests()) {
    if (r.root == root) return r;
  }
  throw std::runtime_error("no round request for " + root);
}

bool mentions(const Verdict& v, const std::string& what) {
  return std::any_of(v.problems.begin(), v.problems.end(), [&](const std::string& p) {
    return p.find(what) != std::string::npos;
  });
}

class CheckerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::current_path() /
           ("checker_test_" + std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    cache_.emplace(dir_ / "cache");
    std::vector<std::string> known;
    for (const auto& e : new_entries(core_stack(repo_), &known)) cache_->push(e, "");
    splice::concretize::ConcretizerOptions opts;
    opts.encoding = splice::concretize::ReuseEncoding::Indirect;
    opts.enable_splicing = true;
    concretizer_.emplace(repo_, opts);
    concretizer_->add_reusable_all(cache_->specs());
  }
  void TearDown() override { fs::remove_all(dir_); }

  ConcretizeResult solve(const std::string& text) {
    return concretizer_->concretize(splice::concretize::Request(text));
  }

  splice::repo::Repository repo_ = splice::workload::radiuss_repo();
  fs::path dir_;
  std::optional<splice::binary::BuildCache> cache_;
  std::optional<Concretizer> concretizer_;
};

TEST_F(CheckerTest, AcceptsTheKnownAnswers) {
  for (const RoundRequest& req : round_requests()) {
    Verdict v = check_answer(req, concretizer_->concretize(req.request), *cache_);
    EXPECT_TRUE(v.ok()) << req.root << ": " << (v.ok() ? "" : v.problems[0]);
    EXPECT_EQ(v.builds, req.splice ? 1u : 0u) << req.root;
  }
}

TEST_F(CheckerTest, RejectsAnAnswerToAnotherRequest) {
  Verdict v = check_answer(request_for("laghos"), solve("py-shroud"), *cache_);
  EXPECT_TRUE(mentions(v, "root does not satisfy"));
}

TEST_F(CheckerTest, RejectsAnUnsplicedAnswerKeepingMpich) {
  // Plain reuse of the mpich stack: no splice, nothing built, mpich present.
  Verdict v = check_answer(request_for("laghos"), solve("laghos ^mpich"), *cache_);
  EXPECT_TRUE(mentions(v, "forbidden package mpich"));
  EXPECT_TRUE(mentions(v, "known answer builds 1"));
  EXPECT_TRUE(mentions(v, "no spliced solution"));
}

TEST_F(CheckerTest, RejectsAReusedHashMissingFromTheCache) {
  ConcretizeResult r = solve("laghos ^mpiabi");
  r.reused_hashes.push_back("0123456789abcdef");
  EXPECT_TRUE(mentions(check_answer(request_for("laghos"), r, *cache_),
                       "reused hash 0123456789abcdef is not in the buildcache"));
}

TEST_F(CheckerTest, RejectsASpliceFromAnUncachedBuildSpec) {
  ConcretizeResult r = solve("laghos ^mpiabi");
  for (auto& n : r.spec.nodes()) {
    if (!n.build_spec) continue;
    auto forged = std::make_shared<splice::spec::Spec>(*n.build_spec);
    forged->root().hash = "0123456789abcdef";
    n.build_spec = forged;
  }
  EXPECT_TRUE(mentions(check_answer(request_for("laghos"), r, *cache_),
                       "uncached build spec"));
}

TEST_F(CheckerTest, RejectsExtraBuildsAndMisreportedBuilds) {
  ConcretizeResult r = solve("py-shroud");
  splice::binary::BuildCache empty(dir_ / "empty");
  EXPECT_TRUE(mentions(check_answer(request_for("py-shroud"), r, empty),
                       "known answer builds 0"));
  r.build_names.push_back("python");
  EXPECT_TRUE(mentions(check_answer(request_for("py-shroud"), r, *cache_),
                       "build_names disagree"));
}

TEST_F(CheckerTest, RejectsStaleHashes) {
  ConcretizeResult r = solve("py-shroud");
  r.spec.root().variants["planted"] = "true";
  EXPECT_TRUE(mentions(check_answer(request_for("py-shroud"), r, *cache_),
                       "stale hash"));
}

TEST_F(CheckerTest, RejectsASplicedControl) {
  ConcretizeResult r = solve("py-shroud");
  r.spec.root().build_spec = std::make_shared<splice::spec::Spec>(r.spec);
  EXPECT_TRUE(mentions(check_answer(request_for("py-shroud"), r, *cache_),
                       "control request was spliced"));
}

TEST_F(CheckerTest, LoaderCheckCatchesABrokenRewiredInstall) {
  // local-rewire's last check: verify_runnable after Installer::rewire.
  splice::binary::InstalledDatabase build_db{
      splice::binary::InstallLayout(dir_ / "buildhost")};
  splice::binary::Installer build_host(build_db, splice::workload::radiuss_abi_surface);
  splice::binary::BuildCache binaries(dir_ / "binaries");
  for (const auto& s : core_stack(repo_)) {
    build_host.install_from_source(s);
    build_host.push_to_cache(s, binaries);
  }
  ConcretizeResult r = solve("laghos ^mpiabi");
  splice::binary::InstalledDatabase db{splice::binary::InstallLayout(dir_ / "site")};
  splice::binary::Installer inst(db, splice::workload::radiuss_abi_surface);
  inst.rewire(r.spec, binaries);
  inst.verify_runnable(r.spec);
  fs::remove(db.layout().lib_path(*r.spec.find("mpiabi")));
  EXPECT_THROW(inst.verify_runnable(r.spec), splice::BinaryError);
}

TEST(Inputs, SameSeedSameInputs) {
  EXPECT_EQ(round_order(7, 3, 32), round_order(7, 3, 32));
  EXPECT_NE(round_order(7, 3, 32), round_order(8, 3, 32));
  splice::repo::Repository repo = splice::workload::radiuss_repo();
  auto a = draw_cache(repo, 5, 300);
  auto b = draw_cache(repo, 5, 300);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].dag_hash(), b[i].dag_hash());
  // The core stack, which fixes the known answers, is always drawn.
  for (const auto& core : core_stack(repo)) {
    EXPECT_TRUE(std::any_of(a.begin(), a.end(), [&](const splice::spec::Spec& s) {
      return s.dag_hash() == core.dag_hash();
    }));
  }
}

}  // namespace
}  // namespace perfbench
