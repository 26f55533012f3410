// Whole-repository static auditing: find packaging bugs *before* any
// concretization runs.
//
// The paper's central risk is that can_splice(target, when=) is a
// human-declared, unverified ABI-compatibility claim (§5.2), with automated
// ABI discovery deferred to future work (§8).  This module closes that gap
// statically, combining three substrates the repo already has:
//
//   * spec satisfies/intersects machinery  -> constraint checks: when=
//     conditions that no declared version/variant can ever satisfy,
//     contradictory sibling depends_on directives, dead conditional deps;
//   * the repository virtual/provider registry -> provider graph checks:
//     provider-less virtuals, provider cycles, ambiguous defaults;
//   * abi::discovery symbol surfaces over the installed store / buildcache
//     -> splice-safety checks: can_splice claims the binaries refute
//     (missing exports), claims no cached pair can ever exercise, asymmetric
//     claims, and suggested-but-undeclared splices;
//   * asp::analyze over the fully compiled per-package program -> encoding
//     cross-check (facts reference only predicates/arities the encoding
//     defines).
//
// Everything is strictly offline and opt-in: the auditor never solves, and
// no concretization path consults it.  Findings carry a stable check ID, a
// severity, and the declaring directive's source location (DirectiveLoc),
// and serialize to the `repo-audit-v1` JSON schema consumed by
// tools/trace_check and CI.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/binary/buildcache.hpp"
#include "src/binary/database.hpp"
#include "src/binary/mockbin.hpp"
#include "src/repo/repository.hpp"
#include "src/spec/spec.hpp"
#include "src/support/json.hpp"

namespace splice::analysis {

enum class Severity : std::uint8_t { Info, Warning, Error };

std::string_view severity_str(Severity s);

/// Stable check identifiers; the string forms (check_id_str) are the
/// `repo-audit-v1` contract and must never be renamed, only added to.
enum class CheckId : std::uint8_t {
  // -- constraint checks (spec satisfies/intersects machinery) --
  WhenUnsatisfiableVersion,  ///< when= version range hits no declared version
  WhenUnknownVariant,        ///< when= references an undeclared variant
  WhenInvalidVariantValue,   ///< when= variant value outside the allowed set
  WhenUnknownPackage,        ///< when= constrains a package the repo lacks
  TargetUnsatisfiableVersion,  ///< directive target version hits no version
  TargetUnknownVariant,        ///< target constrains an undeclared variant
  TargetInvalidVariantValue,   ///< target variant value outside allowed set
  TargetUnknownPackage,        ///< dep/conflict/splice target not in repo
  ContradictoryDeps,  ///< overlapping when= conditions, disjoint targets
  DuplicateDirective,  ///< textually identical directive pair
  UnreachableDep,      ///< dep condition implies an unconditional conflict
  // -- virtual/provider graph checks --
  VirtualNoProvider,         ///< virtual with no provider in the repo
  ProviderCycle,             ///< a provider transitively depends on its virtual
  AmbiguousDefaultProvider,  ///< several unconditional providers
  SpliceVirtualTarget,       ///< can_splice target names a virtual
  // -- splice-safety checks (binary symbol surfaces) --
  SpliceRefuted,      ///< a candidate binary pair refutes the claim
  SpliceUnexercised,  ///< no scanned candidate pair can exercise the claim
  SpliceAsymmetric,   ///< surfaces identical but no reciprocal directive
  SpliceUndeclared,   ///< discovery suggests a splice no directive declares
  // -- concretizer encoding cross-check (asp::analyze) --
  EncodingError,    ///< compiled program has an analyzer error
  EncodingWarning,  ///< compiled program has an analyzer warning
};

std::string_view check_id_str(CheckId id);

/// Inverse of check_id_str; returns false on an unknown id string.  Used by
/// the audit cache to round-trip findings through `repo-audit-cache-v1`.
bool check_id_from_str(std::string_view text, CheckId& out);

/// The fixed severity policy per check (DESIGN.md §11).
Severity severity_of(CheckId id);

struct Finding {
  CheckId id;
  Severity severity;
  std::string package;    ///< package (or virtual) the finding is about
  std::string directive;  ///< "depends_on", "can_splice", ...; "" repo-level
  std::string message;
  repo::DirectiveLoc loc;  ///< call site of the offending directive
  /// Related entities: spec texts, package names, missing symbols.
  std::vector<std::string> related;

  /// "error: splice-refuted [mpiabi @ radiuss.cpp:113] message" rendering.
  std::string str() const;

  /// The `repo-audit-v1` finding object (also the cache's on-disk form).
  json::Value to_json() const;

  /// Inverse of to_json; returns false when `v` is not a well-formed
  /// finding object (unknown check id, missing field, wrong type).
  static bool from_json(const json::Value& v, Finding& out);
};

struct AuditOptions {
  bool constraint_checks = true;
  bool provider_checks = true;
  bool splice_checks = true;
  /// Compile each package's full ASP program and run asp::analyze over it.
  /// Skipped automatically when earlier groups found errors (a broken repo
  /// does not compile to a meaningful program).
  bool encoding_checks = true;
  /// Report can_splice suggestions between versions of the *same* package
  /// too (off: only cross-package suggestions surface, the paper's case).
  bool suggest_same_package = false;
  /// Cap on missing symbols listed per refuted claim.
  std::size_t max_refuted_symbols = 5;
  /// Worker threads for per-package check tasks.  1 = serial (the default);
  /// 0 = one per hardware thread.  Findings are merged in fixed task order,
  /// so every job count produces byte-identical reports.
  std::size_t jobs = 1;
};

struct AuditReport {
  std::vector<Finding> findings;
  std::size_t packages_audited = 0;
  std::size_t virtuals_audited = 0;
  std::size_t splice_directives = 0;
  std::size_t binaries_scanned = 0;
  std::size_t encoding_programs = 0;  ///< per-package programs analyzed

  // -- incremental/parallel accounting (not part of repo-audit-v1: cold and
  //    warm runs must emit byte-identical report artifacts) --
  std::size_t cache_hits = 0;         ///< tasks replayed from the cache
  std::size_t cache_misses = 0;       ///< tasks never cached before
  std::size_t cache_invalidated = 0;  ///< tasks whose content key changed
  std::size_t workers_used = 1;       ///< peak worker-thread count
  /// Task ids ("group/package") actually executed this run, in task order.
  /// With a fully warm cache this is empty — the differential harness's
  /// oracle that only hashed-as-dirty packages were re-checked.
  std::vector<std::string> rechecked_tasks;

  bool has_errors() const { return count(Severity::Error) > 0; }
  std::size_t count(Severity severity) const;
  std::size_t count(CheckId id) const;
  /// One line per finding (what `repo_audit --quiet` prints).
  std::string findings_str() const;
  /// The single "audited N package(s), ...: E error(s), ..." line.
  std::string summary_str() const;
  /// Multi-line human rendering: every finding plus the summary line.
  std::string str() const;
  /// The `repo-audit-v1` JSON document.
  json::Value to_json() const;
};

/// One binary under audit with the concrete spec describing it (shared with
/// the audit cache's fingerprint computation).
struct AuditBinary {
  spec::Spec spec;
  binary::MockBinary bin;
};

class AuditCache;

/// The whole-repository auditor.  Feed it binaries (installed store,
/// buildcache artifacts, or direct spec+binary pairs) to enable the
/// splice-safety group; without any, that group is skipped.
class RepoAuditor {
 public:
  explicit RepoAuditor(const repo::Repository& repo, AuditOptions opts = {});

  /// Add one binary with its concrete spec (the granular entry point).
  /// Throws splice::Error when the spec is not concrete.
  void add_binary(const spec::Spec& concrete, binary::MockBinary bin);

  /// Add every binary artifact of a buildcache (index-only entries are
  /// skipped: they have no symbol surface to audit).
  void scan_buildcache(const binary::BuildCache& cache);

  /// Add every binary of an installed store.
  void scan_database(const binary::InstalledDatabase& db);

  std::size_t num_binaries() const { return binaries_.size(); }

  /// Run every enabled check group.  Never throws on findings.
  ///
  /// Determinism contract: per-package tasks run across `opts.jobs` worker
  /// threads, but results merge in fixed task order (check group, then
  /// packages in registration order, directives in declaration order), so
  /// the findings list — and every serialized artifact — is byte-identical
  /// for every job count.
  ///
  /// With `cache`, each task's content key (AuditFingerprints) is looked up
  /// first: an exact match replays the cached findings, anything else runs
  /// fresh and is stored back.  A cold cache and a warm cache produce
  /// identical reports by construction; hit/miss/invalidated counts land in
  /// the report and in the `audit.cache/{hit,miss,invalidated}` metrics.
  AuditReport run(AuditCache* cache = nullptr) const;

 private:
  struct Task;

  void check_package(const repo::PackageDef& pkg,
                     std::vector<Finding>& out) const;
  void check_providers(std::vector<Finding>& out) const;
  void check_splices(const repo::PackageDef& pkg,
                     std::vector<Finding>& out) const;
  void check_suggestions(std::vector<Finding>& out) const;
  /// Compile and analyze one package's program; returns the number of
  /// programs analyzed (0 when compilation itself failed and was reported).
  std::size_t check_encoding(const std::string& package,
                             std::vector<Finding>& out) const;

  /// Execute one task group as one flight request: cache lookups, parallel
  /// execution of the remainder, in-order merge, cache store-back.
  void run_tasks(std::string_view group, std::vector<Task>& tasks,
                 AuditCache* cache, std::set<std::string>& live_tasks,
                 AuditReport& out) const;

  /// Constraint-check one spec (a when= condition or a directive target)
  /// node-by-node against the declaring repo.  `when_side` selects the
  /// check-ID family.
  void check_spec(const repo::PackageDef& pkg, const spec::Spec& s,
                  bool when_side, std::string_view directive,
                  const repo::DirectiveLoc& loc,
                  std::vector<Finding>& out) const;

  const repo::Repository& repo_;
  AuditOptions opts_;
  std::vector<AuditBinary> binaries_;
};

}  // namespace splice::analysis
