// Solver cost profiling: fold CDCL and grounding work back onto the source
// program, and — through Rule::note — onto the package directives that
// generated it (DESIGN.md §14).
//
// Three layers feed the aggregate:
//   * the CDCL core accumulates per-origin propagations, conflicts, 1UIP
//     participations and learned-clause ancestry (sat::SatProfile);
//   * the grounder accumulates per-source-rule instantiation counts, join
//     candidates and wall time (GroundProfile);
//   * the translation records, per SAT clause origin, which ground construct
//     produced it (ClauseOriginMap), so SAT cost folds back onto ground
//     rules and then — via Provenance — onto source rules.
//
// aggregate_profile() merges them into a Profile: per-directive and
// per-predicate cost tables plus named buckets for cost that belongs to the
// encoding rather than any directive (facts, completion of internal atoms,
// loop nogoods, optimization bounds, decisions/assumptions).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/asp/ground.hpp"
#include "src/asp/program.hpp"
#include "src/asp/sat.hpp"
#include "src/support/json.hpp"

namespace splice::asp {

/// Translation-owned table giving meaning to the solver's opaque clause
/// origin ids: entry `origins[o]` says what kind of ground construct the
/// clauses tagged `o` encode, and its index in the ground program.
struct ClauseOriginMap {
  enum class Kind : std::uint8_t {
    Rule,        ///< index into GroundProgram::rules (body/support/constraint)
    Choice,      ///< index into GroundProgram::choices (incl. bound PBs)
    Completion,  ///< index is the AtomId whose completion clause this is
    Minimize,    ///< index into GroundProgram::minimize (indicator clauses)
    Fact,        ///< unit fact clauses (one shared origin)
    LoopNogood,  ///< loop nogoods from unfounded-set checks
    OptBound,    ///< optimization bound constraints and guard retirements
    Internal,    ///< constant-true var, ":-." absurdity
  };
  struct Entry {
    Kind kind;
    std::uint32_t index = 0;
  };

  std::vector<Entry> entries;

  sat::Origin add(Kind kind, std::uint32_t index = 0) {
    auto o = static_cast<sat::Origin>(entries.size());
    entries.push_back({kind, index});
    return o;
  }
};

/// Raw per-solve profiling payload captured by solve_ground() when
/// SolveOptions::profile is set: the three layers plus the totals they must
/// conserve against, self-contained (no pointers into the translation).
struct ProfileData {
  std::shared_ptr<const GroundProfile> ground;   ///< may be null
  std::shared_ptr<const Provenance> provenance;  ///< may be null
  ClauseOriginMap origins;
  sat::SatProfile sat;
  sat::SatStats sat_stats;
  GroundStats ground_stats;
  /// AtomId -> interned term, for resolving Completion origins to
  /// predicates and (via Provenance::atom_origin) to source rules.
  std::vector<Term> atom_terms;
};

/// The merged, human-meaningful report (splice-profile-v1).
struct Profile {
  struct GroundCost {
    std::uint64_t instantiations = 0;
    std::uint64_t join_candidates = 0;
    std::uint64_t emitted = 0;  ///< ground rules + choices emitted
    double seconds = 0;
  };

  /// One cost table row: a package directive (name == Rule::note), a
  /// predicate, or a named bucket.
  struct Row {
    std::string name;
    /// Source location of the (first) source rule behind this row;
    /// loc_known false for predicates and buckets.
    bool loc_known = false;
    std::uint32_t rule_index = 0xffffffffu;  ///< 0xffffffff = not recorded
    std::uint32_t line = 0;
    std::uint32_t col = 0;
    /// Declaring file, when a higher layer can resolve the row to a real
    /// declaration site (concretize:: fills this from repo::DirectiveLoc).
    std::string file;
    sat::SatProfile::OriginCost sat;
    GroundCost ground;

    /// Unitless hotness: a heuristic blend of deterministic counters that
    /// lets directives with pure grounding cost and directives with pure
    /// search cost share one ranking.  Conflicts dominate (each implies a
    /// full 1UIP analysis).  Wall time is left out, so the same program
    /// ranks the same way on every run; rows with equal scores rank by
    /// name.
    double score() const;

    json::Value to_json() const;
  };

  std::vector<Row> directives;  ///< non-empty Rule::note rows, hottest first
  std::vector<Row> predicates;  ///< unnoted encoding rules by head predicate
  std::vector<Row> buckets;     ///< encoding-internal, fact, loop-nogood, ...
  /// Unnoted encoding rules one row each (name == Rule::str()), most ground
  /// seconds first: the rule-level breakdown behind `predicates`.  Console
  /// only; not part of the splice-profile-v1 payload.
  std::vector<Row> rules;

  sat::SatStats sat_totals;
  GroundStats ground_totals;
  sat::SatProfile::OriginCost unattributed;  ///< decisions/assumptions/etc.
  std::uint64_t learned_total = 0;
  std::uint64_t learned_without_origin = 0;

  /// The splice-profile-v1 payload minus the envelope (schema / requests),
  /// which the caller supplies (concretize::ProfileReport, splice profile).
  json::Value to_json() const;

  /// Brendan-Gregg folded stacks ("layer;counter;row count" lines), ready
  /// for flamegraph.pl / speedscope.
  std::string folded() const;

  /// Human-readable table of the `top` hottest directives (then buckets).
  std::string summary(std::size_t top = 10) const;

  /// One-line "top-N hottest directives" digest for flight-recorder notes.
  std::string top_line(std::size_t n = 3) const;
};

/// Merge the three layers against the source program.  Works with partial
/// data (null ground/provenance): cost that cannot be resolved to a source
/// rule lands in the per-predicate table or the encoding-internal bucket —
/// never silently dropped.
Profile aggregate_profile(const ProfileData& data, const Program& source);

}  // namespace splice::asp
