// Reuse-encoding shape (DESIGN.md §5): imposed values are constraints on the
// bounded choices, so the ground program grows linearly in the cache size,
// and the choice bounds alone keep one hash (and one version) per node when
// two reused parents disagree about a shared child.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/asp/ground.hpp"
#include "src/asp/solve.hpp"
#include "src/concretize/concretizer.hpp"
#include "src/workload/caches.hpp"
#include "src/workload/radiuss.hpp"

namespace splice::concretize {
namespace {

using asp::Term;
using repo::PackageDef;
using repo::Repository;
using spec::Spec;

ConcretizerOptions splice_opts() {
  ConcretizerOptions o;
  o.encoding = ReuseEncoding::Indirect;
  o.enable_splicing = true;
  return o;
}

std::size_t ground_rules(const Repository& repo, std::size_t public_nodes) {
  Concretizer c(repo, splice_opts());
  c.add_reusable_all(workload::public_cache_specs(repo, public_nodes));
  asp::Program program = c.compile_program({Request("visit ^mpiabi")});
  return asp::ground(program).stats.rules;
}

TEST(LinearGrounding, RulesGrowLinearlyWithTheCache) {
  Repository repo = workload::radiuss_repo(0);
  std::size_t small = ground_rules(repo, 1000);
  std::size_t large = ground_rules(repo, 4000);
  ASSERT_GT(small, 0u);
  // A pairwise "one value per node" constraint grounds k^2/2 instances for
  // k cached hashes of a package, so 4x the cache gave ~10x the rules.
  EXPECT_LE(static_cast<double>(large) / static_cast<double>(small), 5.0)
      << small << " rules at 1k nodes, " << large << " at 4k";
}

/// app -> {a, b} -> lib; the cache holds `a` and `b` built against two
/// different configurations of lib (`a_child` / `b_child` request text).
struct ConflictingParents {
  Repository repo;
  Spec a;
  Spec b;

  ConflictingParents(const std::string& a_child, const std::string& b_child) {
    repo.add(PackageDef("lib").version("2.0").version("1.0").variant("shared",
                                                                     true));
    repo.add(PackageDef("a").version("1.0").depends_on("lib"));
    repo.add(PackageDef("b").version("1.0").depends_on("lib"));
    repo.add(PackageDef("app").version("1.0").depends_on("a").depends_on("b"));
    repo.validate();
    Concretizer fresh(repo, splice_opts());
    a = fresh.concretize(Request("a ^" + a_child)).spec;
    b = fresh.concretize(Request("b ^" + b_child)).spec;
  }
};

class ConflictingParentsTest
    : public ::testing::TestWithParam<std::pair<std::string, std::string>> {};

TEST_P(ConflictingParentsTest, NeverBothReused) {
  ConflictingParents setup(GetParam().first, GetParam().second);
  const std::string lib_a = setup.a.find("lib")->hash;
  const std::string lib_b = setup.b.find("lib")->hash;
  ASSERT_NE(lib_a, lib_b);

  Concretizer c(setup.repo, splice_opts());
  c.add_reusable(setup.a);
  c.add_reusable(setup.b);

  // The optimum reuses one parent and rebuilds the other against its lib.
  ConcretizeResult r = c.concretize(Request("app"));
  const std::string lib = r.spec.find("lib")->hash;
  bool reused_a = r.spec.find("a")->hash == setup.a.root().hash;
  bool reused_b = r.spec.find("b")->hash == setup.b.root().hash;
  EXPECT_NE(reused_a, reused_b);
  EXPECT_EQ(lib, reused_a ? lib_a : lib_b);
  EXPECT_EQ(r.build_names.size(), 2u);

  // Forcing both parents' hashes leaves no model at all: the hash choice
  // bound admits only one of the two imposed child hashes.
  asp::Program program = c.compile_program({Request("app")});
  for (const Spec* parent : {&setup.a, &setup.b}) {
    const std::string& name = parent->root().name;
    program.add_constraint(
        {{Term::fun("attr", {Term::str("hash"),
                             Term::fun("node", {Term::str(name)}),
                             Term::str(parent->root().hash)}),
          false}});
  }
  EXPECT_FALSE(asp::solve_program(program).sat);
}

INSTANTIATE_TEST_SUITE_P(
    ChildDifference, ConflictingParentsTest,
    ::testing::Values(std::make_pair("lib@1.0", "lib@2.0"),
                      std::make_pair("lib+shared", "lib~shared")),
    [](const auto& param) {
      return param.index == 0 ? std::string("Version") : std::string("Variant");
    });

}  // namespace
}  // namespace splice::concretize
