// Reachability pruning of reuse candidates (DESIGN.md §15): closure and
// slice unit tests, the pruned-vs-unpruned differential on the RADIUSS
// workload against local and public buildcaches, slice-cache sharing, the
// per-request-set slice memo, and the bulk-registration invalidation
// contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/concretize/concretizer.hpp"
#include "src/concretize/reach.hpp"
#include "src/support/error.hpp"
#include "src/support/trace.hpp"
#include "src/workload/caches.hpp"
#include "src/workload/radiuss.hpp"

namespace splice::concretize {
namespace {

using repo::PackageDef;
using repo::Repository;
using spec::Spec;

ConcretizerOptions splice_opts(bool prune = true) {
  ConcretizerOptions o;
  o.encoding = ReuseEncoding::Indirect;
  o.enable_splicing = true;
  o.prune_reuse = prune;
  return o;
}

/// app -> libfoo, app -> mpi (provided by mpich | openmpi); `orphan` is in
/// the repo but unreachable from app.
Repository diamond_repo() {
  Repository repo;
  repo.add(PackageDef("libfoo").version("2.0").version("1.0"));
  repo.add(PackageDef("mpich").version("3.4").provides("mpi"));
  repo.add(PackageDef("openmpi").version("4.1").provides("mpi"));
  repo.add(PackageDef("app")
               .version("1.0")
               .depends_on("libfoo")
               .depends_on("mpi"));
  repo.add(PackageDef("orphan").version("9.9"));
  repo.validate();
  return repo;
}

Spec concretized(const Repository& repo, const std::string& text) {
  Concretizer c(repo, splice_opts());
  return c.concretize(Request(text)).spec;
}

TEST(PackageClosure, ExpandsVirtualsToAllProviders) {
  Repository repo = diamond_repo();
  std::set<std::string> closure =
      reach::package_closure(repo, {"app"}, {});
  EXPECT_TRUE(closure.count("app"));
  EXPECT_TRUE(closure.count("libfoo"));
  // The provider choice is part of the solution space: both providers (and
  // the virtual itself) are reachable.
  EXPECT_TRUE(closure.count("mpich"));
  EXPECT_TRUE(closure.count("openmpi"));
  EXPECT_FALSE(closure.count("orphan"));
}

TEST(PackageClosure, ExtraEdgesFoldIn) {
  Repository repo = diamond_repo();
  // A cache DAG drew libfoo -> orphan even though no directive does.
  std::map<std::string, std::set<std::string>> extra;
  extra["libfoo"].insert("orphan");
  std::set<std::string> closure =
      reach::package_closure(repo, {"app"}, extra);
  EXPECT_TRUE(closure.count("orphan"));
}

TEST(SliceReusable, DropsUnreachableAndMismatchedEntries) {
  Repository repo = diamond_repo();
  Concretizer helper(repo, splice_opts());
  std::map<std::string, Spec> reusable;
  auto index = [&](const Spec& s) {
    for (std::size_t i = 0; i < s.nodes().size(); ++i) {
      reusable.emplace(s.nodes()[i].hash, s.subdag(i));
    }
  };
  index(concretized(repo, "app"));
  Spec orphan = concretized(repo, "orphan");
  index(orphan);
  Spec old_foo = concretized(repo, "libfoo@1.0");
  index(old_foo);

  // Unconstrained request: everything reachable stays, orphan goes.
  reach::Slice all = reach::slice_reusable(repo, reusable, {},
                                           {Request("app")});
  EXPECT_EQ(all.total, reusable.size());
  EXPECT_FALSE(all.keep.count(orphan.dag_hash()));
  EXPECT_TRUE(all.keep.count(old_foo.dag_hash()));
  EXPECT_EQ(all.keep.size(), reusable.size() - 1);

  // A version constraint on libfoo cuts the non-intersecting 1.0 entry.
  reach::Slice pinned = reach::slice_reusable(repo, reusable, {},
                                             {Request("app ^libfoo@2.0")});
  EXPECT_FALSE(pinned.keep.count(old_foo.dag_hash()));

  // Forbidden packages are NOT filtered: their entries stay compilable as
  // splice-away targets.
  Request no_mpich("app");
  no_mpich.forbidden.push_back("mpich");
  reach::Slice forb = reach::slice_reusable(repo, reusable, {}, {no_mpich});
  Spec app = concretized(repo, "app");
  const spec::SpecNode* mpich = app.find("mpich");
  if (mpich != nullptr) {
    EXPECT_TRUE(forb.keep.count(mpich->hash));
  }
}

TEST(SliceReusable, KeepsSubDagChildrenOfKeptEntries) {
  Repository repo = diamond_repo();
  std::map<std::string, Spec> reusable;
  Spec app = concretized(repo, "app ^libfoo@1.0");
  for (std::size_t i = 0; i < app.nodes().size(); ++i) {
    reusable.emplace(app.nodes()[i].hash, app.subdag(i));
  }
  // The request pins libfoo@2.0, so the standalone libfoo@1.0 entry fails
  // the constraint filter — but the app entry imposes its whole sub-DAG, so
  // the 1.0 child's facts must survive via the stage-2 closure.
  reach::Slice slice = reach::slice_reusable(repo, reusable, {},
                                             {Request("app ^libfoo@2.0")});
  ASSERT_TRUE(slice.keep.count(app.dag_hash()));
  EXPECT_TRUE(slice.keep.count(app.find("libfoo")->hash));
}

TEST(SliceReusable, FingerprintIsContentAddressed) {
  Repository repo = diamond_repo();
  std::map<std::string, Spec> reusable;
  Spec app = concretized(repo, "app");
  for (std::size_t i = 0; i < app.nodes().size(); ++i) {
    reusable.emplace(app.nodes()[i].hash, app.subdag(i));
  }
  reach::Slice a = reach::slice_reusable(repo, reusable, {}, {Request("app")});
  // A differently phrased request with the same closure shares the key.
  reach::Slice b = reach::slice_reusable(repo, reusable, {},
                                         {Request("app ^libfoo")});
  EXPECT_EQ(a.keep, b.keep);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  reach::Slice c = reach::slice_reusable(repo, reusable, {},
                                         {Request("libfoo")});
  EXPECT_NE(a.fingerprint, c.fingerprint);
}

/// All node hashes of a concrete spec, sorted — the differential's unit of
/// comparison (objectives alone could mask a tie broken differently).
std::vector<std::string> node_hashes(const Spec& s) {
  std::vector<std::string> out;
  for (const auto& n : s.nodes()) out.push_back(n.hash);
  std::sort(out.begin(), out.end());
  return out;
}

/// Objective vector as a priority -> cost map with absent levels explicit
/// zeros: a minimize level with no ground atoms (pruning can empty one) is
/// omitted from Model::costs but means exactly "cost 0 at this priority".
std::map<std::int64_t, std::int64_t> objective_map(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& costs) {
  std::map<std::int64_t, std::int64_t> out;
  for (const auto& [priority, cost] : costs) out[priority] = cost;
  return out;
}

void expect_same_objectives(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& a,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& b) {
  std::map<std::int64_t, std::int64_t> ma = objective_map(a);
  std::map<std::int64_t, std::int64_t> mb = objective_map(b);
  for (const auto& [priority, cost] : mb) {
    if (ma.find(priority) == ma.end() && cost == 0) ma[priority] = 0;
  }
  for (const auto& [priority, cost] : ma) {
    if (mb.find(priority) == mb.end() && cost == 0) mb[priority] = 0;
  }
  EXPECT_EQ(ma, mb);
}

/// Concretize every request with pruning on and off and require identical
/// concrete DAGs and objective vectors.
void run_differential(const Repository& repo,
                      const std::vector<Spec>& cache,
                      const std::vector<Request>& requests) {
  Concretizer pruned(repo, splice_opts(true));
  Concretizer unpruned(repo, splice_opts(false));
  pruned.add_reusable_all(cache);
  unpruned.add_reusable_all(cache);
  for (const Request& request : requests) {
    SCOPED_TRACE(request.root.str());
    ConcretizeResult a = pruned.concretize(request);
    ConcretizeResult b = unpruned.concretize(request);
    EXPECT_EQ(a.spec.dag_hash(), b.spec.dag_hash());
    EXPECT_EQ(node_hashes(a.spec), node_hashes(b.spec));
    expect_same_objectives(a.objectives, b.objectives);
    std::sort(a.reused_hashes.begin(), a.reused_hashes.end());
    std::sort(b.reused_hashes.begin(), b.reused_hashes.end());
    EXPECT_EQ(a.reused_hashes, b.reused_hashes);
    EXPECT_EQ(a.splices.size(), b.splices.size());
  }
}

std::vector<Request> radiuss_requests() {
  std::vector<Request> requests;
  for (const std::string& root : workload::radiuss_roots()) {
    if (workload::depends_on_mpi(root)) {
      requests.emplace_back(root + " ^mpiabi");
      // The Fig. 7 cell: forbid the provider the cache was built with.
      Request fig7(root);
      fig7.forbidden.push_back("mpich");
      requests.push_back(std::move(fig7));
    } else {
      requests.emplace_back(root);
    }
  }
  return requests;
}

TEST(PruneDifferential, LocalCacheIdenticalModels) {
  Repository repo = workload::radiuss_repo(0);
  run_differential(repo, workload::local_cache_specs(repo),
                   radiuss_requests());
}

TEST(PruneDifferential, PublicCacheIdenticalModels) {
  Repository repo = workload::radiuss_repo(0);
  run_differential(repo, workload::public_cache_specs(repo, 300),
                   radiuss_requests());
}

TEST(PruneDifferential, UnsatAgreesUnderPruning) {
  Repository repo = diamond_repo();
  Concretizer pruned(repo, splice_opts(true));
  Concretizer unpruned(repo, splice_opts(false));
  Spec app = concretized(repo, "app");
  pruned.add_reusable(app);
  unpruned.add_reusable(app);
  Request impossible("app");
  impossible.forbidden.push_back("libfoo");
  EXPECT_THROW(pruned.concretize(impossible), UnsatisfiableError);
  EXPECT_THROW(unpruned.concretize(impossible), UnsatisfiableError);
}

TEST(SliceCache, SameClosureSharesOneCompiledProgram) {
  Repository repo = workload::radiuss_repo(0);
  Concretizer c(repo, splice_opts(true));
  c.add_reusable_all(workload::local_cache_specs(repo));
  EXPECT_EQ(c.compile_cache_builds(), 0u);
  (void)c.concretize(Request("caliper"));
  EXPECT_EQ(c.compile_cache_builds(), 1u);
  // Same closure, differently phrased: cache hit, no new build.
  (void)c.concretize(Request("caliper"));
  (void)c.concretize(Request("caliper ^papi"));
  std::size_t after_shared = c.compile_cache_builds();
  EXPECT_EQ(after_shared, 1u);
  // A root with a different closure compiles its own slice.
  (void)c.concretize(Request("zlib"));
  EXPECT_EQ(c.compile_cache_builds(), 2u);
}

TEST(SliceCache, NoPruneUsesSingleFullCache) {
  Repository repo = workload::radiuss_repo(0);
  Concretizer c(repo, splice_opts(false));
  c.add_reusable_all(workload::local_cache_specs(repo));
  (void)c.concretize(Request("caliper"));
  (void)c.concretize(Request("zlib"));
  (void)c.concretize(Request("ascent ^mpiabi"));
  EXPECT_EQ(c.compile_cache_builds(), 1u);
}

TEST(SliceCache, WalksThatKeepEverythingShareTheUnprunedSlice) {
  Repository repo = diamond_repo();
  Concretizer c(repo, splice_opts(true));
  c.add_reusable(concretized(repo, "app"));
  // Both request sets reach every entry: two memo keys, one unpruned slice.
  (void)c.concretize(Request("app"));
  (void)c.concretize(Request("app ^libfoo"));
  EXPECT_EQ(c.compile_cache_builds(), 1u);
}

/// Diagnostic passes compile base and request afresh with one Compiler:
/// whatever they run, the slice cache stays empty until a concretize().
TEST(SliceCache, DiagnosticPassesBuildNoSlice) {
  Repository repo = workload::radiuss_repo(0);
  for (bool prune : {true, false}) {
    SCOPED_TRACE(prune ? "pruned" : "unpruned");
    Concretizer c(repo, splice_opts(prune));
    c.add_reusable_all(workload::local_cache_specs(repo));
    const std::vector<Request> reqs = {Request("hdf5 ^mpiabi")};
    (void)c.compile_program(reqs);
    EXPECT_EQ(c.compile_cache_builds(), 0u) << "compile_program";
    EXPECT_TRUE(c.profile(reqs).sat);
    EXPECT_EQ(c.compile_cache_builds(), 0u) << "profile";
    EXPECT_TRUE(c.explain_splice(reqs).sat);
    EXPECT_EQ(c.compile_cache_builds(), 0u) << "explain_splice";
    EXPECT_TRUE(c.explain_unsat(reqs).explanation.sat);
    EXPECT_EQ(c.compile_cache_builds(), 0u) << "explain_unsat";
    (void)c.concretize(reqs.front());
    EXPECT_EQ(c.compile_cache_builds(), 1u);
  }
}

/// lib (two versions, a boolean variant) under app; the cache holds app's
/// default stack plus lib@1.0 and lib~shared on their own.
Repository variant_repo() {
  Repository repo;
  repo.add(PackageDef("lib").version("2.0").version("1.0").variant("shared",
                                                                   true));
  repo.add(PackageDef("app").version("1.0").depends_on("lib"));
  repo.validate();
  return repo;
}

std::vector<Spec> variant_cache(const Repository& repo) {
  return {concretized(repo, "app"), concretized(repo, "lib@1.0"),
          concretized(repo, "lib~shared")};
}

/// The answer a Concretizer that never saw another request gives.
std::string fresh_answer(const Repository& repo, const std::vector<Spec>& cache,
                         const std::string& text) {
  Concretizer c(repo, splice_opts());
  c.add_reusable_all(cache);
  return c.concretize(Request(text)).spec.dag_hash();
}

TEST(SliceMemo, VersionAndVariantConstraintsGetTheirOwnSlices) {
  Repository repo = variant_repo();
  std::vector<Spec> cache = variant_cache(repo);
  Concretizer c(repo, splice_opts());
  c.add_reusable_all(cache);
  // Same root, differing only in a version or a variant constraint: each
  // keeps different lib entries, so each compiles its own slice.
  const std::vector<std::string> texts = {"lib@1.0", "lib@2.0", "lib+shared",
                                          "lib~shared"};
  for (const std::string& text : texts) (void)c.concretize(Request(text));
  EXPECT_EQ(c.compile_cache_builds(), texts.size());
  // Repeats are memo hits: no new slice, and the answer of a fresh
  // Concretizer.
  for (const std::string& text : texts) {
    SCOPED_TRACE(text);
    EXPECT_EQ(c.concretize(Request(text)).spec.dag_hash(),
              fresh_answer(repo, cache, text));
  }
  EXPECT_EQ(c.compile_cache_builds(), texts.size());
}

TEST(SliceMemo, MemoHitAnswersLikeAFreshConcretizer) {
  Repository repo = workload::radiuss_repo(0);
  std::vector<Spec> cache = workload::public_cache_specs(repo, 300);
  Concretizer c(repo, splice_opts());
  c.add_reusable_all(cache);
  const std::vector<std::string> texts = {"hdf5 ^mpiabi", "zlib", "caliper",
                                          "hdf5 ^mpiabi", "caliper"};
  std::vector<std::string> first;
  for (const std::string& text : texts) {
    first.push_back(c.concretize(Request(text)).spec.dag_hash());
  }
  std::size_t builds = c.compile_cache_builds();
  for (std::size_t i = 0; i < texts.size(); ++i) {
    SCOPED_TRACE(texts[i]);
    EXPECT_EQ(c.concretize(Request(texts[i])).spec.dag_hash(), first[i]);
    EXPECT_EQ(first[i], fresh_answer(repo, cache, texts[i]));
  }
  EXPECT_EQ(c.compile_cache_builds(), builds);
}

TEST(SliceMemo, AddReusableDropsTheMemo) {
  Repository repo = diamond_repo();
  Concretizer c(repo, splice_opts());
  c.add_reusable(concretized(repo, "app"));
  trace::MetricsRegistry& m = trace::Tracer::global().metrics();
  // Nothing to prune yet: the memo remembers "full cache" for app.
  std::int64_t dropped = m.counter("concretize/prune_dropped");
  (void)c.concretize(Request("app"));
  (void)c.concretize(Request("app"));
  EXPECT_EQ(m.counter("concretize/prune_dropped"), dropped);
  // An unreachable registration makes app's request prunable; a memo that
  // survived add_reusable would still report nothing dropped.
  c.add_reusable(concretized(repo, "orphan"));
  (void)c.concretize(Request("app"));
  EXPECT_EQ(m.counter("concretize/prune_dropped"), dropped + 1);
  (void)c.concretize(Request("app"));
  EXPECT_EQ(m.counter("concretize/prune_dropped"), dropped + 2);
}

TEST(BulkRegistration, OneInvalidationPerBatch) {
  Repository repo = workload::radiuss_repo(0);
  std::vector<Spec> cache = workload::local_cache_specs(repo);

  // add_reusable_all then a stream of solves: exactly one compiled program
  // per distinct closure, no matter how many specs were registered.
  Concretizer bulk(repo, splice_opts(true));
  bulk.add_reusable_all(cache);
  for (int i = 0; i < 3; ++i) (void)bulk.concretize(Request("caliper"));
  EXPECT_EQ(bulk.compile_cache_builds(), 1u);
  // Bulk registration indexes the same entries one-by-one registration does.
  Concretizer serial(repo, splice_opts(true));
  for (const Spec& s : cache) serial.add_reusable(s);
  EXPECT_EQ(bulk.num_reusable(), serial.num_reusable());
  EXPECT_GT(bulk.num_reusable(), 0u);

  // Interleaved add/solve must not recompile once per registered spec:
  // each solve after a registration rebuilds its slice exactly once.
  Concretizer inter(repo, splice_opts(true));
  ASSERT_GE(cache.size(), 2u);
  inter.add_reusable(cache[0]);
  (void)inter.concretize(Request("caliper"));
  EXPECT_EQ(inter.compile_cache_builds(), 1u);
  inter.add_reusable(cache[1]);
  (void)inter.concretize(Request("caliper"));
  EXPECT_EQ(inter.compile_cache_builds(), 2u);
  // Solving again without registering anything stays cached.
  (void)inter.concretize(Request("caliper"));
  EXPECT_EQ(inter.compile_cache_builds(), 2u);
}

}  // namespace
}  // namespace splice::concretize
