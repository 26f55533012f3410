// Tests for the synthetic RADIUSS workload: repository consistency, the
// greedy resolver (including cross-validation against the ASP concretizer),
// and buildcache generation.
#include <gtest/gtest.h>

#include <set>

#include "src/asp/term.hpp"
#include "src/concretize/concretizer.hpp"
#include "src/support/error.hpp"
#include "src/workload/caches.hpp"
#include "src/workload/radiuss.hpp"
#include "src/workload/resolver.hpp"

namespace splice::workload {
namespace {

using spec::Spec;
using spec::Version;

TEST(Radiuss, RepoIsConsistent) {
  repo::Repository repo = radiuss_repo();
  EXPECT_NO_THROW(repo.validate());
  EXPECT_GE(repo.size(), 55u);
  EXPECT_TRUE(repo.is_virtual("mpi"));
  // mpich, openmpi, mpiabi all provide mpi.
  auto providers = repo.providers("mpi");
  EXPECT_GE(providers.size(), 3u);
}

TEST(Radiuss, ThirtyTwoRoots) {
  repo::Repository repo = radiuss_repo();
  EXPECT_EQ(radiuss_roots().size(), 32u);
  for (const std::string& root : radiuss_roots()) {
    EXPECT_TRUE(repo.contains(root)) << root;
  }
}

TEST(Radiuss, MpiDependentSubset) {
  EXPECT_GE(mpi_dependent_roots().size(), 15u);
  EXPECT_TRUE(depends_on_mpi("mfem"));
  EXPECT_TRUE(depends_on_mpi("visit"));
  EXPECT_FALSE(depends_on_mpi("py-shroud"));
  EXPECT_FALSE(depends_on_mpi("flux-core"));
}

TEST(Radiuss, MpiabiSplicesIntoMpich343) {
  repo::Repository repo = radiuss_repo();
  const auto& splices = repo.get("mpiabi").splices();
  ASSERT_EQ(splices.size(), 1u);
  EXPECT_EQ(splices[0].target.root().name, "mpich");
  EXPECT_TRUE(splices[0].target.root().versions.includes(
      Version::parse("3.4.3")));
}

TEST(Radiuss, ReplicasShareDirectives) {
  repo::Repository repo = radiuss_repo(5);
  auto names = mpiabi_replica_names(5);
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names[0], "mpiabi-r00");
  EXPECT_EQ(names[4], "mpiabi-r04");
  for (const auto& n : names) {
    ASSERT_TRUE(repo.contains(n)) << n;
    EXPECT_EQ(repo.get(n).splices().size(), 1u);
    EXPECT_EQ(radiuss_abi_surface(n), "mpi");
  }
}

TEST(Resolver, ResolvesEveryRoot) {
  repo::Repository repo = radiuss_repo();
  SimpleResolver resolver(repo);
  ResolveChoices mpich;
  mpich.providers["mpi"] = "mpich";
  for (const std::string& root : radiuss_roots()) {
    Spec s = resolver.resolve(root, mpich);
    EXPECT_TRUE(s.is_concrete()) << root;
    EXPECT_EQ(s.root().name, root);
    if (depends_on_mpi(root)) {
      EXPECT_NE(s.find("mpich"), nullptr) << root;
    } else {
      EXPECT_EQ(s.find("mpich"), nullptr) << root;
    }
  }
}

TEST(Resolver, DeterministicOutput) {
  repo::Repository repo = radiuss_repo();
  SimpleResolver resolver(repo);
  ResolveChoices c;
  c.providers["mpi"] = "mpich";
  EXPECT_EQ(resolver.resolve("mfem", c).dag_hash(),
            resolver.resolve("mfem", c).dag_hash());
}

TEST(Resolver, HonorsChoices) {
  repo::Repository repo = radiuss_repo();
  SimpleResolver resolver(repo);
  ResolveChoices c;
  c.providers["mpi"] = "openmpi";
  c.versions["zlib"] = spec::VersionConstraint::exactly(Version::parse("1.2.13"));
  c.variants["raja"]["openmp"] = "false";
  Spec s = resolver.resolve("kripke", c);
  EXPECT_NE(s.find("openmpi"), nullptr);
  EXPECT_EQ(s.find("mpich"), nullptr);
  EXPECT_EQ(s.find("raja")->variants.at("openmp"), "false");
}

TEST(Resolver, ConditionalDependencyRespected) {
  repo::Repository repo = radiuss_repo();
  SimpleResolver resolver(repo);
  ResolveChoices c;
  c.providers["mpi"] = "mpich";
  // hdf5~mpi must not depend on mpi.
  c.variants["hdf5"]["mpi"] = "false";
  Spec s = resolver.resolve("hdf5", c);
  EXPECT_EQ(s.find("mpich"), nullptr);
  ResolveChoices with_mpi;
  with_mpi.providers["mpi"] = "mpich";
  Spec s2 = resolver.resolve("hdf5", with_mpi);  // default +mpi
  EXPECT_NE(s2.find("mpich"), nullptr);
}

TEST(Resolver, MissingProviderThrows) {
  repo::Repository repo = radiuss_repo();
  SimpleResolver resolver(repo);
  EXPECT_THROW(resolver.resolve("mfem", {}), UnsatisfiableError);
}

TEST(Resolver, MatchesAspConcretizer) {
  // Cross-validate the two engines on a few roots: same provider pinned,
  // the optimal ASP model must coincide with the greedy resolution (both
  // pick newest versions and defaults).
  repo::Repository repo = radiuss_repo();
  SimpleResolver resolver(repo);
  ResolveChoices choices;
  choices.providers["mpi"] = "mpich";
  concretize::Concretizer c(repo);
  for (const char* root : {"raja", "mfem", "py-shroud", "scr"}) {
    Spec greedy = resolver.resolve(root, choices);
    concretize::Request req(depends_on_mpi(root)
                                ? std::string(root) + " ^mpich"
                                : std::string(root));
    concretize::ConcretizeResult solved = c.concretize(req);
    EXPECT_EQ(greedy.dag_hash(), solved.spec.dag_hash())
        << root << "\ngreedy:\n" << greedy.tree() << "\nasp:\n"
        << solved.spec.tree();
  }
}

TEST(Radiuss, RepeatedRoundInternsNoNewTerms) {
  // The term interner is append-only and process-wide.  Repeated traffic
  // must not grow it: after one warm-up round of the 32 roots against the
  // local cache, an identical second round interns nothing new.
  repo::Repository repo = radiuss_repo();
  concretize::ConcretizerOptions opts;
  opts.enable_splicing = true;
  concretize::Concretizer c(repo, opts);
  for (const auto& s : local_cache_specs(repo)) c.add_reusable(s);
  auto round = [&] {
    for (const std::string& root : radiuss_roots()) {
      concretize::Request req(depends_on_mpi(root) ? root + " ^mpiabi" : root);
      EXPECT_TRUE(c.concretize(req).spec.is_concrete()) << root;
    }
  };
  round();
  std::size_t warm = asp::Term::interned_count();
  round();
  EXPECT_EQ(asp::Term::interned_count(), warm);
}

TEST(Caches, LocalCacheShape) {
  repo::Repository repo = radiuss_repo();
  auto specs = local_cache_specs(repo);
  EXPECT_GE(specs.size(), radiuss_roots().size());
  std::size_t nodes = distinct_nodes(specs);
  // Paper: ~200 specs in the local cache.
  EXPECT_GE(nodes, 120u);
  EXPECT_LE(nodes, 400u);
  // Splice targets present: some cached spec contains mpich@3.4.3.
  bool has_target = false;
  for (const auto& s : specs) {
    const auto* m = s.find("mpich");
    if (m && m->concrete_version() == Version::parse("3.4.3")) has_target = true;
  }
  EXPECT_TRUE(has_target);
}

TEST(Caches, PublicCacheReachesTarget) {
  repo::Repository repo = radiuss_repo();
  auto specs = public_cache_specs(repo, 600);
  EXPECT_GE(distinct_nodes(specs), 600u);
  // Deterministic.
  auto again = public_cache_specs(repo, 600);
  ASSERT_EQ(specs.size(), again.size());
  EXPECT_EQ(specs.back().dag_hash(), again.back().dag_hash());
}

TEST(Caches, PublicCacheCoversLocalConfigurations) {
  // A fully swept public cache contains every local-cache configuration;
  // 4000 nodes is enough to complete the pairwise variation stage.
  repo::Repository repo = radiuss_repo();
  auto local = local_cache_specs(repo);
  auto pub = public_cache_specs(repo, 4000);
  std::set<std::string> pub_hashes;
  for (const auto& s : pub) {
    for (const auto& n : s.nodes()) pub_hashes.insert(n.hash);
  }
  std::size_t covered = 0;
  for (const auto& s : local) {
    if (pub_hashes.count(s.dag_hash()) > 0) ++covered;
  }
  EXPECT_GE(covered, local.size() * 9 / 10)
      << covered << " of " << local.size() << " local specs covered";
}


TEST(Resolver, ConflictsEnforced) {
  repo::Repository r;
  r.add(repo::PackageDef("zlib").version("1.3").version("1.2"));
  r.add(repo::PackageDef("app")
            .version("2.0")
            .depends_on("zlib@1.3")          // forces 1.3...
            .conflicts("zlib@1.3", "@2.0")); // ...which conflicts
  r.validate();
  SimpleResolver resolver(r);
  EXPECT_THROW(resolver.resolve("app", {}), UnsatisfiableError);
}

TEST(Resolver, ConflictAvoidedWhenConfigDiffers) {
  repo::Repository r;
  r.add(repo::PackageDef("zlib").version("1.3").version("1.2"));
  r.add(repo::PackageDef("app").version("2.0").depends_on("zlib").conflicts(
      "zlib@1.3", "@2.0"));
  r.validate();
  SimpleResolver resolver(r);
  // Greedy picks zlib@1.3 (newest) and then trips the conflict: greedy does
  // not backtrack (unlike the ASP solver, which picks 1.2 -- see
  // Concretizer.ConflictsRespected).
  ResolveChoices pin;
  pin.versions["zlib"] =
      spec::VersionConstraint::exactly(Version::parse("1.2"));
  Spec s = resolver.resolve("app", pin);
  EXPECT_EQ(s.find("zlib")->concrete_version(), Version::parse("1.2"));
  EXPECT_THROW(resolver.resolve("app", {}), UnsatisfiableError);
}

}  // namespace
}  // namespace splice::workload
