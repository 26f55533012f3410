// ASP solving: translate a GroundProgram to SAT (Clark completion + native
// cardinality), search with CDCL, verify stability with unfounded-set
// checking, and optimize weak constraints lexicographically.
//
// The translation is completion-based: it is complete for tight programs;
// for non-tight programs (positive recursion in the ground dependency graph)
// every candidate model is checked for unfounded loops and loop nogoods are
// learned until a stable model is found — the classic lazy approach.
//
// Optimization follows Spack/clingo semantics: #minimize terms are grouped
// by priority and minimized lexicographically from the highest priority
// down, via branch-and-bound with native pseudo-Boolean bound constraints.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "src/asp/ground.hpp"
#include "src/asp/profile.hpp"
#include "src/asp/program.hpp"
#include "src/support/json.hpp"

namespace splice::asp {

struct SolveStats {
  double ground_seconds = 0;
  double translate_seconds = 0;
  double solve_seconds = 0;
  std::uint64_t sat_vars = 0;
  std::uint64_t sat_clauses = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t restarts = 0;
  std::uint64_t models_enumerated = 0;   // candidate models during optimization
  std::uint64_t loop_nogoods = 0;        // unfounded-set refutations
  GroundStats ground;

  double total_seconds() const {
    return ground_seconds + translate_seconds + solve_seconds;
  }

  /// Stats-JSON object: timings, SAT counters, and the nested ground stats.
  json::Value to_json() const;
};

/// A stable (and, when minimize statements exist, optimal) model.
struct Model {
  /// The true atoms, as interned terms.
  std::unordered_set<Term, TermHash> atoms;
  /// (priority, cost) pairs, highest priority first.
  std::vector<std::pair<std::int64_t, std::int64_t>> costs;

  bool contains(Term t) const { return atoms.count(t) > 0; }

  /// All true atoms with the given predicate signature, e.g. "attr/4",
  /// sorted.
  std::vector<Term> with_signature(std::string_view sig) const;
  /// with_signature for several signatures from one scan of the atoms:
  /// element i holds the atoms of sigs[i].
  std::vector<std::vector<Term>> with_signatures(
      std::initializer_list<std::string_view> sigs) const;
};

struct SolveResult {
  bool sat = false;
  Model model;       // valid when sat
  SolveStats stats;
  /// Raw profiling payload; null unless SolveOptions::profile was set.
  /// Feed to aggregate_profile() with the source program to fold the cost
  /// back onto directives.
  std::shared_ptr<const ProfileData> profile;
};

struct SolveOptions {
  /// Tag every SAT clause with its origin and accumulate per-origin /
  /// per-source-rule cost into SolveResult::profile.  Pair with
  /// GroundOptions::profile + record_provenance for directive attribution.
  bool profile = false;
};

/// Solve an already-ground program.
SolveResult solve_ground(const GroundProgram& gp, const SolveOptions& opts = {});

/// Ground and solve a program.
SolveResult solve_program(const Program& program, const SolveOptions& opts = {});

/// Enumerate stable models (ignoring optimization) up to `limit` (0 = all).
/// Each returned model is distinct in its atom set.  Enumeration blocks each
/// found model and re-solves, so expect cost proportional to the count.
std::vector<Model> enumerate_models(const GroundProgram& gp,
                                    std::size_t limit = 0);
std::vector<Model> enumerate_models(const Program& program,
                                    std::size_t limit = 0);

}  // namespace splice::asp
