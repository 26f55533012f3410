// CDCL SAT solver with pseudo-Boolean (cardinality/weighted-sum) propagators.
//
// This is the model-search core under the ASP translation: Clark completion
// produces clauses, choice-rule bounds and #minimize bounds become
// linear-sum-at-most constraints handled natively by PbConstraint
// propagators (no encoding blowup).  The solver implements the standard
// modern recipe: two-watched-literal propagation, first-UIP conflict
// analysis, VSIDS decision heuristic with phase saving, Luby restarts, and
// activity-based learned-clause reduction.
//
// PB propagation is lazily explained.  A PB that forces a literal false
// above level 0 records `kPbTag | pb index` as the literal's reason instead
// of attaching a clause; the explanation (the PB's true literals above
// level 0 that precede the forced one on the trail) is built only when
// conflict analysis or analyze_final resolves on it, then cached as an
// unwatched clause.  Conflicts are rare next to PB propagations in the
// concretizer's programs, so most propagations are never explained.  PB
// *conflict* clauses are still built eagerly.
// SatStats::learned counts 1UIP learnt clauses and PB conflict clauses; it
// does not count PB reason clauses.
//
// Incremental use: clauses and PB constraints may be added between solve()
// calls (only at decision level 0, which solve() restores on return); the
// optimization driver uses this to tighten objective bounds, and the ASP
// driver to add loop nogoods from unfounded-set checks.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "src/support/json.hpp"

namespace splice::asp::sat {

using Var = std::uint32_t;
/// Literal encoding: 2*var for the positive literal, 2*var+1 for negative.
using Lit = std::uint32_t;

inline Lit mk_lit(Var v, bool positive) { return 2 * v + (positive ? 0 : 1); }
inline Var var_of(Lit l) { return l >> 1; }
inline bool is_pos(Lit l) { return (l & 1) == 0; }
inline Lit negate(Lit l) { return l ^ 1; }

enum class Value : std::uint8_t { Undef, True, False };

/// Compact clause-origin tag: an index into a translation-owned origin table
/// (asp::ClauseOriginMap).  The solver never interprets origins — it only
/// accumulates per-origin cost counters while profiling is enabled — so the
/// meaning of an Origin value is entirely the caller's.
using Origin = std::uint32_t;
inline constexpr Origin kNoOrigin = 0xffffffffu;

struct SatStats {
  std::uint64_t decisions = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t propagations = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned = 0;  ///< 1UIP learnts + PB conflict clauses
  std::uint64_t deleted = 0;

  /// Flat object, one field per counter (stats-JSON schema leaf).
  json::Value to_json() const;
};

/// Per-origin cost accounting, populated only while profiling is enabled
/// (Solver::enable_profiling).  Counter placement makes conservation exact:
/// every propagation/conflict increments exactly one bucket, so
///   sum(per_origin[*].propagations) + unattributed.propagations
/// equals the SatStats::propagations accumulated while profiling (and the
/// same for conflicts).  `unattributed` collects work with no reason:
/// decisions, assumptions, and level-0 units.  A PB strengthening counts
/// against the PB's origin whether or not its reason was ever explained.
struct SatProfile {
  struct OriginCost {
    std::uint64_t propagations = 0;    ///< trail pops implied by this origin
    std::uint64_t conflicts = 0;       ///< conflicts on a clause of this origin
    std::uint64_t participations = 0;  ///< 1UIP resolution-chain memberships
    std::uint64_t learned = 0;         ///< learned clauses with this ancestor
  };
  std::vector<OriginCost> per_origin;  ///< indexed by Origin
  OriginCost unattributed;
  std::uint64_t learned_total = 0;  ///< learnt clauses, unit learnts included
  std::uint64_t learned_without_origin = 0;  ///< empty resolution ancestry
};

class Solver {
 public:
  Solver();

  Var new_var();
  std::size_t num_vars() const { return assigns_.size(); }

  /// Size the variable arrays for `vars` variables and the clause store for
  /// `clauses` clauses holding `lits` literals in all, so a loader that
  /// knows its counts up front grows nothing while it adds.  Changes no
  /// state the search sees.
  void reserve(std::size_t vars, std::size_t clauses, std::size_t lits);

  /// Add a clause (disjunction).  Returns false if the solver became
  /// trivially UNSAT (empty clause / conflicting units at level 0).
  /// `origin` tags the clause for profiling; kNoOrigin leaves it untagged.
  /// The literals are copied; duplicates, level-0 false literals and
  /// tautologies are simplified away in a reused buffer.
  bool add_clause(std::span<const Lit> lits, Origin origin = kNoOrigin);
  bool add_clause(std::initializer_list<Lit> lits, Origin origin = kNoOrigin) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()), origin);
  }

  /// Add a constraint sum{ weight[i] : lits[i] true } <= bound.
  /// Weights must be positive.  Conflict and strengthening clauses the
  /// constraint derives during search inherit `origin`.
  bool add_pb_le(std::vector<std::pair<Lit, std::int64_t>> terms,
                 std::int64_t bound, Origin origin = kNoOrigin);

  enum class Result { Sat, Unsat };
  Result solve();

  /// Solve under assumptions: each literal is placed as a decision before
  /// the free search.  Returns Unsat if the assumptions are inconsistent
  /// with the clause database — without marking the solver unsatisfiable,
  /// so the caller can retract them and continue (in_conflict() stays
  /// false).  Learned clauses, activities and saved phases persist across
  /// calls; the optimization driver leans on this to tighten objective
  /// bounds without rebuilding the solver.
  ///
  /// Reusability contract: on every return the solver is back at decision
  /// level 0 with an empty propagation queue, so it may be re-solved under
  /// different assumptions, and assumptions may later be retired by adding
  /// them (or their negations) as unit clauses.  After an assumption-scoped
  /// Unsat, final_core() holds the failed-assumption core.
  Result solve(const std::vector<Lit>& assumptions);

  /// The failed-assumption core of the most recent solve(assumptions) call:
  /// a subset of the assumptions passed in that is already inconsistent
  /// with the clause database (computed by analyze_final over the
  /// implication graph).  Meaningful only when that call returned Unsat
  /// with in_conflict() still false; empty when the Unsat was
  /// unconditional, i.e. independent of the assumptions.
  const std::vector<Lit>& final_core() const { return final_core_; }

  /// Model access; valid after solve() returned Sat.  Unconstrained
  /// variables read as false.
  bool model_value(Var v) const { return model_[v]; }
  /// The whole model, one bit per variable (copy it to keep an incumbent).
  const std::vector<bool>& model() const { return model_; }

  const SatStats& stats() const { return stats_; }

  /// Clauses currently in the database (original + learned, minus deleted).
  std::size_t num_clauses() const;

  /// True once the clause database is known unsatisfiable.
  bool in_conflict() const { return unsat_; }

  /// Switch per-origin cost accounting on or off.  Enabling (re)starts the
  /// counters from zero; disabling drops them.  The hot paths pay one
  /// pointer test when profiling is off (the ≤2% overhead contract).
  void enable_profiling(bool on);

  /// The accumulated profile, or nullptr when profiling is off.
  const SatProfile* profile() const { return profile_.get(); }

 private:
  using ClauseRef = std::uint32_t;
  static constexpr ClauseRef kNoReason = 0xffffffffu;
  /// A reason with this bit set is `kPbTag | pb index`: a PB strengthening
  /// whose explanation clause reason_of() has not built yet.
  static constexpr ClauseRef kPbTag = 0x80000000u;

  /// A clause header.  Its literals live in lits_[offset, offset + size):
  /// every clause, original, learned or PB reason, is one slice of that
  /// flat pool, appended in creation order and never moved.
  struct Clause {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    double activity = 0;
    Origin origin = kNoOrigin;  // profiling tag; learnt clauses inherit a
                                // representative ancestor origin
    bool learned = false;
    bool dead = false;
  };

  struct PbConstraint {
    std::vector<std::pair<Lit, std::int64_t>> terms;
    std::int64_t bound = 0;
    std::int64_t sum = 0;        // weight of currently-true terms
    std::int64_t max_weight = 0;
    Origin origin = kNoOrigin;
  };

  struct PbWatch {
    std::uint32_t pb;
    std::uint32_t term;
  };

  Lit* lits_of(const Clause& c) { return lits_.data() + c.offset; }
  const Lit* lits_of(const Clause& c) const { return lits_.data() + c.offset; }

  Value value(Lit l) const {
    Value v = assigns_[var_of(l)];
    if (v == Value::Undef) return Value::Undef;
    bool t = (v == Value::True);
    return (t == is_pos(l)) ? Value::True : Value::False;
  }

  Result search(const std::vector<Lit>& assumptions);
  void analyze_final(Lit p);
  /// reason_[v] as a clause: builds (once) and caches the explanation of a
  /// lazily explained PB propagation; other reasons pass through.
  ClauseRef reason_of(Var v);
  bool enqueue(Lit l, ClauseRef reason);
  ClauseRef propagate();
  ClauseRef propagate_pb(Lit assigned_true);
  void analyze(ClauseRef confl, std::vector<Lit>& learnt, std::uint32_t& bt_level);
  void backtrack(std::uint32_t level);
  void bump_var(Var v);
  void decay_activity();
  Lit pick_branch();
  void reduce_db();
  ClauseRef attach_clause(std::span<const Lit> lits, bool learned, bool watch,
                          Origin origin = kNoOrigin);
  std::vector<Lit> pb_conflict_clause(const PbConstraint& pb) const;
  SatProfile::OriginCost& origin_cost(Origin o);

  // heap of variables ordered by activity
  void heap_insert(Var v);
  Var heap_pop();
  void heap_up(std::size_t i);
  void heap_down(std::size_t i);
  bool heap_empty() const { return heap_.empty(); }

  std::vector<Clause> clauses_;
  std::vector<Lit> lits_;     // clause literal pool (see Clause)
  std::vector<Lit> add_tmp_;  // add_clause's simplification buffer
  std::vector<std::vector<ClauseRef>> watches_;  // indexed by falsified literal
  std::vector<std::vector<PbWatch>> pb_watches_;  // indexed by true literal
  std::vector<PbConstraint> pbs_;

  std::vector<Value> assigns_;
  std::vector<std::uint32_t> level_;
  std::vector<ClauseRef> reason_;  // clause ref, kPbTag | pb, or kNoReason
  std::vector<std::uint32_t> trail_pos_;  // var -> index on trail_ when set
  std::vector<Lit> trail_;
  std::vector<std::uint32_t> trail_lim_;
  std::size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  std::vector<bool> phase_;
  std::vector<std::uint32_t> heap_;      // heap of vars
  std::vector<std::uint32_t> heap_pos_;  // var -> heap index or npos

  std::vector<bool> model_;
  std::vector<bool> seen_;
  std::vector<bool> assumption_mark_;  // var is in the active assumption set
  std::vector<Lit> final_core_;
  bool unsat_ = false;

  std::uint64_t num_learned_limit_ = 4096;
  SatStats stats_;

  // Profiling state: null while off (the hot-path gate).  ancestry_ is
  // analyze()'s scratch list of the distinct tagged origins resolved on the
  // current 1UIP chain.
  std::unique_ptr<SatProfile> profile_;
  std::vector<Origin> ancestry_;
};

/// Deletion-based minimization of a failed-assumption core: repeatedly
/// re-solve with one assumption dropped, keeping any subset that stays
/// Unsat (the solver's refined final_core() is adopted, which can discard
/// several assumptions at once — clause-set refinement).  Returns a
/// subset-minimal core: re-solving the result is Unsat, but every proper
/// subset is Sat.  `max_solves` (0 = unlimited) caps the number of
/// re-solves; `solves`, when non-null, receives the count actually spent.
/// If the database itself becomes Unsat (in_conflict()), returns empty.
std::vector<Lit> minimize_core(Solver& solver, std::vector<Lit> core,
                               std::uint64_t max_solves = 0,
                               std::uint64_t* solves = nullptr);

}  // namespace splice::asp::sat
