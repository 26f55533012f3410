// Internal: the SAT translation of a ground program (Clark completion +
// native PB constraints) and the stable-model search driver on top of it.
// Shared by the solving/optimization driver (src/asp/solve.cpp) and the
// explanation engine (src/asp/explain.cpp); not part of the public engine
// API — include src/asp/solve.hpp or src/asp/explain.hpp instead.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/asp/ground.hpp"
#include "src/asp/profile.hpp"
#include "src/asp/sat.hpp"
#include "src/asp/solve.hpp"

namespace splice::asp {

/// What one guard literal activates, in guarded/explanation mode: an
/// integrity constraint, or one bound of a choice rule.  Indexes refer to
/// GroundProgram::rules / GroundProgram::choices respectively.
struct GuardTarget {
  enum class Kind : std::uint8_t { Constraint, ChoiceLower, ChoiceUpper };
  Kind kind;
  std::size_t index;
};

/// Per-atom lists in one flat array (CSR): atom a's entries are
/// items[first[a], first[a + 1]).  Filled in two passes: count() every
/// entry, then place() them in emission order, so each list keeps the order
/// its entries were placed in.
template <typename T>
class AtomLists {
 public:
  explicit AtomLists(std::size_t atoms = 0) : first_(atoms + 2, 0) {}
  void count(AtomId a) { ++first_[a + 2]; }
  /// Entries counted for atom a so far (before start_placing only).
  std::uint32_t counted(AtomId a) const { return first_[a + 2]; }
  /// Ends counting.  Afterwards first_[a + 1] is atom a's next free slot;
  /// once every entry is placed it is atom a's end, i.e. atom a+1's start.
  void start_placing() {
    for (std::size_t i = 1; i < first_.size(); ++i) first_[i] += first_[i - 1];
    items_.resize(first_.back());
    first_.pop_back();
  }
  void place(AtomId a, T item) { items_[first_[a + 1]++] = std::move(item); }
  std::span<const T> operator[](AtomId a) const {
    return {items_.data() + first_[a], items_.data() + first_[a + 1]};
  }

 private:
  std::vector<std::uint32_t> first_;
  std::vector<T> items_;
};

/// One SAT translation of a ground program.  Built once per solve: the
/// optimization driver keeps the same solver (and its learned clauses,
/// activities and saved phases) across all priority levels by expressing
/// tentative objective bounds as guard-activated PB constraints that are
/// enabled via solve-under-assumptions and retired with a unit clause —
/// nothing is ever rebuilt or relaxed.
///
/// Guarded mode (`guard_constraints`): every integrity constraint and choice
/// bound is made conditional on a fresh guard literal, so the program's
/// hard constraints are enforced only while their guards are assumed true.
/// Solving under the full guard set then reproduces the original program,
/// and when the result is Unsat the solver's failed-assumption core names
/// the violated constraints — the raw material of explain_unsat().  Normal
/// rules, completion clauses and minimize indicators are never guarded:
/// they define atoms rather than reject models, so guarded and unguarded
/// translations agree on stability.
class Translation {
 public:
  /// `profile` tags every emitted clause with a ClauseOriginMap origin and
  /// switches the solver's per-origin accounting on (see src/asp/profile.hpp).
  explicit Translation(const GroundProgram& gp, bool guard_constraints = false,
                       bool profile = false);

  sat::Solver& solver() { return *solver_; }

  sat::Lit atom_lit(AtomId a, bool positive) const {
    return sat::mk_lit(atom_var_[a], positive);
  }

  sat::Lit glit(const GLit& l) const { return atom_lit(l.atom, l.positive); }

  bool model_atom(AtomId a) const { return solver_->model_value(atom_var_[a]); }
  /// Atom a's value in a copy of the solver's model bits.
  bool model_atom(const std::vector<bool>& bits, AtomId a) const {
    return bits[atom_var_[a]];
  }

  bool model_body(const std::vector<GLit>& body) const {
    for (const GLit& l : body) {
      if (model_atom(l.atom) != l.positive) return false;
    }
    return true;
  }

  /// Guard literals created in guarded mode (empty otherwise), aligned with
  /// guard_targets().  Pass the full set as assumptions to enforce every
  /// constraint; subsets enforce subsets.
  const std::vector<sat::Lit>& guards() const { return guards_; }
  const std::vector<GuardTarget>& guard_targets() const {
    return guard_targets_;
  }

  /// Objective literals+weights for one priority level, over the minimize
  /// indicator variables.
  std::vector<std::pair<sat::Lit, std::int64_t>> objective_terms(
      std::int64_t priority) const;

  /// Evaluate the cost of the current model at one priority level directly
  /// from atom values (independent of the indicator variables).
  std::int64_t eval_cost(std::int64_t priority) const;

  /// Find an unfounded set among the true atoms of the current model.
  /// Returns the corresponding loop nogoods (empty when the model is stable).
  std::vector<std::vector<sat::Lit>> unfounded_nogoods() const;

  /// The clause-origin table, or nullptr when not profiling.
  const ClauseOriginMap* origins() const { return origins_.get(); }

  /// Shared origins for clauses added after build(): loop nogoods from
  /// stable-model checks, and optimization bound constraints/retirements.
  /// kNoOrigin when not profiling.
  sat::Origin loop_nogood_origin() const { return loop_origin_; }
  sat::Origin opt_bound_origin() const { return opt_origin_; }

 private:
  bool lit_true(sat::Lit l) const {
    return solver_->model_value(sat::var_of(l)) == sat::is_pos(l);
  }

  void define_and(sat::Var v, std::span<const sat::Lit> lits);
  /// Size the solver and the per-atom lists from the ground program.
  void reserve(const std::vector<bool>& is_fact);
  void build();
  sat::Lit make_body(const std::vector<GLit>& body);
  sat::Lit new_guard(GuardTarget target);
  void compute_sccs();

  /// Mint an origin id for the construct currently being translated (build()
  /// sets cur_origin_ to it); kNoOrigin when not profiling.
  sat::Origin tag(ClauseOriginMap::Kind kind, std::uint32_t index = 0) {
    return origins_ ? origins_->add(kind, index) : sat::kNoOrigin;
  }

  const GroundProgram& gp_;
  bool guard_constraints_ = false;
  std::unique_ptr<sat::Solver> solver_;
  sat::Var true_var_ = 0;
  std::vector<sat::Var> atom_var_;

  // Profiling: null/kNoOrigin when off.  cur_origin_ rides along build()'s
  // clause emission so define_and/make_body inherit the enclosing
  // construct's origin.
  std::unique_ptr<ClauseOriginMap> origins_;
  sat::Origin cur_origin_ = sat::kNoOrigin;
  sat::Origin loop_origin_ = sat::kNoOrigin;
  sat::Origin opt_origin_ = sat::kNoOrigin;

  /// Choice-rule support for an atom: the eligibility literal plus the
  /// positive atoms it depends on (choice body and element condition), held
  /// as choice_deps_[deps_begin, deps_end).  The dependencies matter for
  /// unfounded-set reasoning — an eligible choice only justifies its atom
  /// when that eligibility is itself externally supported.
  struct ChoiceSupport {
    sat::Lit elig = 0;
    std::uint32_t deps_begin = 0;
    std::uint32_t deps_end = 0;
  };
  std::span<const AtomId> pos_deps(const ChoiceSupport& cs) const {
    return {choice_deps_.data() + cs.deps_begin,
            choice_deps_.data() + cs.deps_end};
  }

  std::vector<sat::Lit> body_lit_;                // per rule index
  AtomLists<sat::Lit> supports_;                  // per atom
  AtomLists<ChoiceSupport> choice_supports_;      // per atom
  std::vector<AtomId> choice_deps_;               // see ChoiceSupport
  AtomLists<std::uint32_t> rules_by_head_;        // rule indexes per head
  // Scratch clauses: make_body's conjunction, and the clause being built
  // (define_and's back clause, constraints, completion, minimize).
  std::vector<sat::Lit> body_tmp_;
  std::vector<sat::Lit> clause_tmp_;
  std::vector<sat::Var> min_var_;
  std::vector<sat::Lit> guards_;
  std::vector<GuardTarget> guard_targets_;
  std::vector<bool> scc_nontrivial_;
  bool tight_ = true;
};

/// Run the SAT search until a *stable* model is found (or UNSAT), learning
/// loop nogoods along the way.  Nogoods go straight into the (persistent)
/// solver; `assumptions` scope the search, so Unsat may mean "under these
/// assumptions only" — check tr.solver().in_conflict() / final_core().
/// Reports asp.model / asp.loop_nogood flight events.
sat::Solver::Result solve_stable(Translation& tr,
                                 const std::vector<sat::Lit>& assumptions,
                                 SolveStats& stats);

}  // namespace splice::asp
