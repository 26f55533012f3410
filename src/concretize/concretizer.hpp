// The concretizer: Spack's dependency resolver reproduced on our mini-ASP
// engine (paper §3.3, §5).
//
// Given a package repository, a set of reusable concrete specs (installed
// or in buildcaches), and an abstract request, the concretizer compiles
// everything to ASP facts and rules, solves for an optimal stable model,
// and interprets the model back into a concrete spec:
//
//   facts:  pkg_fact/2 (versions, variants, provides),
//           installed_hash/2 + (imposed_constraint|hash_attr)/3..5,
//           range_allows/2 (precomputed version-range satisfaction),
//   rules:  one specialized rule per conditional directive (condition_holds,
//           impositions, conflicts, and the Fig. 4a can_splice rules),
//           plus the static concretization logic (choice of versions,
//           variants, providers, reuse, and the Fig. 4b splice synthesis),
//   objective: minimize builds (weight 100, top priority), then splices,
//           then version and variant preferences — as in Spack.
//
// Two encodings of reusable specs are provided (paper §5.1.2 vs §5.3):
//   Direct   -- imposed_constraint facts, no splicing possible (old spack);
//   Indirect -- hash_attr facts + recovery rules, the splice-capable
//               encoding (splice spack).  Splicing itself is a separate
//               toggle, mirroring the paper's experimental axes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/asp/asp.hpp"
#include "src/concretize/explain.hpp"
#include "src/repo/repository.hpp"
#include "src/spec/spec.hpp"
#include "src/support/json.hpp"
#include "src/support/trace.hpp"

namespace splice::concretize {

enum class ReuseEncoding {
  Direct,    ///< old spack: imposed_constraint facts (paper §5.1.2)
  Indirect,  ///< splice spack: hash_attr indirection (paper §5.3)
};

struct ConcretizerOptions {
  ReuseEncoding encoding = ReuseEncoding::Indirect;
  /// Consider spliced solutions (requires Indirect encoding).
  bool enable_splicing = false;
  std::string default_os = "linux";
  std::string default_target = "x86_64";
  /// Prune reusable-entry facts to the request's virtual-expanded package
  /// closure before compiling (DESIGN.md §15): against a 20k-node public
  /// buildcache a request compiles a few hundred reuse facts instead of all
  /// of them, with identical optimal models.  Off (--no-prune) compiles
  /// every registered entry regardless of reachability.
  bool prune_reuse = true;
};

/// A concretization request: the abstract spec plus optional extra
/// constraints used by the evaluation (e.g. RQ4 forbids mpich).
struct Request {
  spec::Spec root;
  /// Package names that must not appear in the solution.
  std::vector<std::string> forbidden;

  Request() = default;
  explicit Request(std::string_view text) : root(spec::Spec::parse(text)) {}
  explicit Request(spec::Spec s) : root(std::move(s)) {}
};

/// One executed splice in a solution: reused spec `parent_hash` had its
/// dependency `replaced_name` replaced by solution node `replacement_name`.
struct SpliceDecision {
  std::string parent_name;
  std::string parent_hash;
  std::string replaced_name;
  std::string replacement_name;
};

struct ConcretizeResult {
  spec::Spec spec;  ///< concrete solution, splice provenance attached
  std::vector<std::string> reused_hashes;       ///< nodes reused verbatim
  std::vector<std::string> build_names;         ///< nodes needing builds
  std::vector<SpliceDecision> splices;
  /// Optimal objective vector: (priority, cost) pairs, highest priority
  /// first — the pruned-vs-unpruned differential compares these.
  std::vector<std::pair<std::int64_t, std::int64_t>> objectives;
  asp::SolveStats stats;

  bool used_splice() const { return !splices.empty(); }
};

/// Result of a unified multi-root solve (Spack environments): one solution
/// DAG shared by every root — one configuration per package across the whole
/// environment.
struct EnvironmentResult {
  /// Per-request concrete specs, aligned with the requests; they share
  /// dependency configurations (equal names => equal hashes).
  std::vector<spec::Spec> roots;
  std::vector<std::string> reused_hashes;
  std::vector<std::string> build_names;
  std::vector<SpliceDecision> splices;
  std::vector<std::pair<std::int64_t, std::int64_t>> objectives;
  asp::SolveStats stats;

  bool used_splice() const { return !splices.empty(); }
};

/// Directive-level cost profile of one request set — the answer to "why is
/// my concretization slow?": grounding and CDCL work attributed back to the
/// package directives (and encoding predicates/buckets) that generated it.
struct ProfileReport {
  std::vector<std::string> requests;  ///< request texts, in input order
  bool sat = false;
  asp::SolveStats stats;
  asp::Profile profile;

  /// Full splice-profile-v1 document: schema/requests envelope plus the
  /// cost tables of Profile::to_json().
  json::Value to_json() const;
  /// Human-readable report: request header + top-`top` cost tables.
  std::string text(std::size_t top = 10) const;
  /// Brendan-Gregg folded stacks for flamegraph.pl / speedscope.
  std::string folded() const { return profile.folded(); }
};

class Concretizer {
 public:
  Concretizer(const repo::Repository& repo, ConcretizerOptions opts = {});

  /// Movable (factory functions return by value); the mutex itself is not
  /// moved, only the cache state it guards.  Not thread-safe against
  /// concurrent use of `other`, like any move.
  Concretizer(Concretizer&& other) noexcept
      : repo_(other.repo_),
        opts_(std::move(other.opts_)),
        reusable_(std::move(other.reusable_)),
        reusable_edges_(std::move(other.reusable_edges_)),
        slice_caches_(std::move(other.slice_caches_)),
        slice_order_(std::move(other.slice_order_)),
        slice_memo_(std::move(other.slice_memo_)),
        cache_builds_(other.cache_builds_) {}
  Concretizer& operator=(Concretizer&&) = delete;

  /// Register a reusable concrete spec: every node of its DAG becomes an
  /// independently reusable entry (as Spack indexes buildcaches).
  void add_reusable(const spec::Spec& concrete);

  /// Bulk registration: register every spec of a container (of Spec values
  /// or of pointers to Spec) with a single compile-cache invalidation for
  /// the whole batch instead of one per spec.
  template <typename Container>
  void add_reusable_all(const Container& specs) {
    for (const auto& s : specs) {
      if constexpr (std::is_convertible_v<decltype(s), const spec::Spec&>) {
        register_reusable(s);
      } else {
        register_reusable(*s);
      }
    }
    invalidate_caches();
  }

  /// Solve a request.  Throws UnsatisfiableError when no solution exists.
  /// Thread-safe: concurrent concretize() calls share the compile caches
  /// under a lock and solve on private grounder/solver instances
  /// (ConcretizerPool fans batches out over exactly this contract).
  ConcretizeResult concretize(const Request& request) const;

  /// Solve several requests together with unified dependencies (the Spack
  /// environment model): every package has a single configuration across
  /// all roots.  Throws UnsatisfiableError when no unified solution exists.
  EnvironmentResult concretize_together(
      const std::vector<Request>& requests) const;

  /// Compile the request set to its full ASP program (facts, specialized
  /// rules and the static logic fragments) without solving — the input to
  /// asp::analyze and the asp_lint regression checks.
  asp::Program compile_program(const std::vector<Request>& requests) const;

  /// Explain why the request set cannot be concretized: compile, ground with
  /// derivation provenance, and extract a minimized unsat core mapped back
  /// to request/package-directive notes and source locations.  Also valid on
  /// satisfiable request sets (the diagnosis then reports sat = true).
  UnsatDiagnosis explain_unsat(const std::vector<Request>& requests,
                               const asp::ExplainOptions& opts = {}) const;

  /// Explain the splice decisions for a request set: solve it, then report
  /// every splice candidate the solver considered with the can_splice
  /// directive behind it and a verdict (executed / rejected and why).
  /// Requires enable_splicing; reports sat = false when the request set has
  /// no solution (use explain_unsat then).
  SpliceDiagnosis explain_splice(const std::vector<Request>& requests) const;

  /// Profile a request set: compile, ground with provenance + per-rule cost
  /// accounting, solve with per-origin SAT accounting, and fold the combined
  /// cost back onto package directives.  Always solves from scratch.  Valid
  /// on unsatisfiable request sets too (sat = false; the grounding and
  /// refutation cost is still attributed).
  ProfileReport profile(const std::vector<Request>& requests) const;

  /// Analyzer whitelists matching this encoding: attr and the reuse fact
  /// predicates are intentionally multi-arity, attr is consumed by the model
  /// extractor rather than by rules, and the reuse/splice fact predicates may
  /// be absent in some configurations.
  static asp::AnalyzeOptions lint_options();

  std::size_t num_reusable() const { return reusable_.size(); }
  const ConcretizerOptions& options() const { return opts_; }

  /// How many slice caches were built so far (the unpruned program counts
  /// as one slice) — the bulk-registration and slice-sharing regression
  /// tests' oracle.  Diagnostic passes build none.
  std::size_t compile_cache_builds() const;

 public:
  /// Internal: compiles package/reusable/request facts and rules (exposed
  /// for the file-local solve path; not part of the stable API).
  class Compiler;
  /// Internal: snapshot of the request-independent compile state (the base
  /// program's frozen grounding, version candidates, range registry).
  /// Built lazily on first solve and shared by every subsequent
  /// concretization from this Concretizer; invalidated by add_reusable.
  /// Terms are globally interned, so repeated solves also skip re-interning
  /// the fact base.
  struct CompileCache;

 private:
  struct PassOptions {
    std::string_view name;   ///< request span name, category "concretize"
    std::string_view label;  ///< flight request text before the roots
    bool profile = false;    ///< profile ground + solve, fold onto directives
    bool keep_ground = false;  ///< ground with provenance, keep for the step
    bool throw_unsat = false;  ///< UnsatisfiableError after the step
  };
  /// What a pass hands its extraction step.
  struct Pass {
    trace::Span* span = nullptr;  ///< the request span
    /// Base + request program, set when profiling or keep_ground (the
    /// provenance's rule indexes point into it).
    asp::Program program;
    asp::GroundProgram ground;    ///< kept when keep_ground
    asp::SolveResult solved;
    asp::Profile profile;         ///< directive costs when profiling
  };
  /// The one instrumented request path: the request span and flight
  /// account, then compile, ground, solve and `step` (the extraction), each
  /// in one flight::PhaseScope.  The request ends where the last phase ends.
  void run_pass(const std::vector<Request>& requests, const PassOptions& opts,
                const std::function<void(Pass&)>& step) const;

  /// The slice cache serving this request set, keyed by the pruned-slice
  /// fingerprint: requests with the same closure share one compiled program.
  /// The unpruned program (pruning off, or a walk that keeps every entry) is
  /// the slice under a reserved key.  A request set seen before whose slice
  /// is still cached skips the reachability walk (slice_memo_).  Thread-safe;
  /// cold builds run under the lock, which also deduplicates concurrent
  /// cold starts.
  std::shared_ptr<const CompileCache> ensure_cache(
      const std::vector<Request>& requests) const;
  /// Base and request program of a diagnostic pass, compiled by one Compiler
  /// over the slice serving `requests` (one reachability walk, no compile
  /// cache); `request_at` receives the rule index request rules take in
  /// one-shot order.
  std::pair<asp::Program, asp::Program> compile_fresh(
      const std::vector<Request>& requests, std::size_t* request_at) const;
  /// Whether `requests` get a reachability walk (DESIGN.md §15).
  bool prunes(const std::vector<Request>& requests) const;
  /// Compile and ground the slice cache of `keep` (null: every entry);
  /// callers hold cache_mu_.
  std::shared_ptr<const CompileCache> build_cache(
      const std::set<std::string>* keep) const;
  void register_reusable(const spec::Spec& concrete);
  void invalidate_caches();

  const repo::Repository& repo_;
  ConcretizerOptions opts_;
  /// hash -> concrete sub-DAG (one entry per reusable node).
  std::map<std::string, spec::Spec> reusable_;
  /// package -> dependency package names observed across registered cache
  /// DAGs: closure edges hand-built caches may draw beyond the repo's own
  /// directives (reach::package_closure folds them in).
  std::map<std::string, std::set<std::string>> reusable_edges_;

  /// Cache state, guarded by cache_mu_ for concurrent concretize() calls.
  /// Slice caches (the unpruned one included) are FIFO-bounded; any
  /// add_reusable invalidates everything (allowed_os/allowed_target derive
  /// from the full map, so a slice keyed only by kept hashes cannot outlive
  /// a registration).
  mutable std::mutex cache_mu_;
  mutable std::map<std::string, std::shared_ptr<const CompileCache>>
      slice_caches_;
  mutable std::vector<std::string> slice_order_;  ///< FIFO eviction order
  /// What the reachability walk gave for a request set, keyed by its roots'
  /// Spec::str() joined with newlines (forbidden packages do not change the
  /// slice).  kept == total means nothing was pruned (the unpruned slice).
  struct SliceMemo {
    std::string fingerprint;
    std::size_t kept = 0;
    std::size_t total = 0;
  };
  mutable std::unordered_map<std::string, SliceMemo> slice_memo_;
  mutable std::size_t cache_builds_ = 0;
};

}  // namespace splice::concretize
