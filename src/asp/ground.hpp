// Grounding: instantiate a non-ground Program into a propositional
// GroundProgram.
//
// The grounder runs bottom-up, semi-naive evaluation over the positive part
// of the program: it maintains an over-approximation of the derivable atoms
// ("possible"), instantiates rule bodies against it with indexed joins, and
// iterates to a fixpoint.  Negative literals are kept symbolic during the
// fixpoint and resolved afterwards against the final possible set:
//
//   * `not a` where `a` is not possible  -> literal is true, dropped;
//   * `not a` where `a` is certain       -> rule instance is dropped;
//   * otherwise the literal survives into the ground program.
//
// Atoms derivable by facts (and by negation-free rules from facts) are
// tracked as "certain" and emitted as unit facts, which keeps the SAT
// translation small: the bulk of a concretizer instance is fact data
// (pkg_fact / hash_attr) that never reaches the solver as clauses.
// Certainty is computed as a deterministic closure over the final instance
// set, so the optimized and reference paths (see GroundOptions) produce
// identical ground programs.
//
// Grounding is split in two (DESIGN.md §4.1): `ground_base` runs the
// fixpoint over a request-independent base program once and freezes it into
// an immutable GroundBase; `ground_request` restores that snapshot, seeds a
// request program's facts as the delta, instantiates the request's rules in
// full and the base's rules only through delta pivots, then runs the
// certainty closure and emission.  The positive fixpoint is monotone, so
// every base atom, instance and positive-certain atom stays valid under any
// request; negation is resolved only at emission.  `ground(p)` is
// `ground_request(ground_base(p), {})` — there is one engine.
//
// Hot-path machinery (each independently gated by GroundOptions so the
// differential suite can cross-check it against the naive path):
//   * per-predicate atom stores keyed by interned signature ids, with
//     persistent per-argument hash indexes (built once, maintained
//     incrementally — no rebuilds, no candidate copying);
//   * a join planner that orders body literals by bound-variable overlap
//     and predicate extension size (selectivity);
//   * semi-naive delta evaluation instead of naive full re-instantiation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/asp/program.hpp"
#include "src/asp/term.hpp"
#include "src/support/json.hpp"

namespace splice::asp {

using AtomId = std::uint32_t;

/// Ground literal: atom id + sign.
struct GLit {
  AtomId atom;
  bool positive;
};

/// Ground normal rule or integrity constraint (has_head == false).
struct GRule {
  bool has_head = false;
  AtomId head = 0;
  std::vector<GLit> body;
};

struct GChoiceElem {
  AtomId atom;
  std::vector<GLit> condition;  // ground residual condition (rarely nonempty)
};

/// Ground bounded choice rule.
struct GChoice {
  std::optional<std::int64_t> lower;
  std::optional<std::int64_t> upper;
  std::vector<GChoiceElem> elements;
  std::vector<GLit> body;
};

/// Ground objective term: contributes `weight` at `priority` when any of its
/// condition conjunctions is satisfied.  Conditions are grouped per distinct
/// (weight, priority, tuple) as ASP weak-constraint semantics require.
struct GMinTerm {
  std::int64_t weight;
  std::int64_t priority;
  std::vector<std::vector<GLit>> conditions;
  std::string tuple_repr;  // for diagnostics
};

struct GroundStats {
  std::size_t possible_atoms = 0;
  std::size_t certain_atoms = 0;
  std::size_t rules = 0;
  std::size_t choices = 0;
  std::size_t iterations = 0;
  std::size_t provenance_bytes = 0;  ///< 0 unless record_provenance was set
  double seconds = 0;

  /// Flat object, one field per counter (stats-JSON schema leaf).
  json::Value to_json() const;
};

/// Derivation provenance, recorded only when GroundOptions::record_provenance
/// is set (the hot path pays nothing otherwise).  Maps each emitted ground
/// rule/choice — and each derived atom — back to the source rule and the
/// variable substitution of the instantiation that (first) produced it, which
/// is what lets the explanation engine (src/asp/explain.hpp) attach source
/// locations and request notes to unsat-core members.
struct Provenance {
  static constexpr std::uint32_t kNoRule = 0xffffffffu;

  struct Origin {
    std::uint32_t rule_index = kNoRule;  ///< index into Program::rules()
    /// (variable, value) bindings of the deriving instantiation, in join
    /// order (the order depends on the join plan, not the rule text).
    std::vector<std::pair<Term, Term>> bindings;
  };

  std::vector<Origin> rule_origin;    ///< aligned with GroundProgram::rules
  std::vector<Origin> choice_origin;  ///< aligned with GroundProgram::choices
  /// First derivation of each possible atom, keyed by interned term id.
  std::unordered_map<std::uint32_t, Origin> atom_origin;

  /// Approximate heap footprint, reported as the `ground.provenance_bytes`
  /// metric and GroundStats::provenance_bytes.
  std::size_t approx_bytes() const;
};

/// Per-source-rule grounding cost, recorded only when GroundOptions::profile
/// is set.  Counter placement keeps conservation exact against GroundStats:
/// sum(per_rule[*].emitted_rules) == GroundStats::rules and
/// sum(per_rule[*].emitted_choices) == GroundStats::choices.
struct GroundProfile {
  struct RuleCost {
    std::uint64_t instantiations = 0;    ///< body matches that survived dedup
    std::uint64_t join_candidates = 0;   ///< candidate atoms scanned in joins
    std::uint64_t emitted_rules = 0;     ///< ground rules emitted from here
    std::uint64_t emitted_choices = 0;   ///< ground choices emitted from here
    double seconds = 0;                  ///< wall time instantiating this rule
  };
  std::vector<RuleCost> per_rule;  ///< indexed by Program::rules() position
  std::uint64_t minimize_join_candidates = 0;  ///< #minimize condition joins
  double minimize_seconds = 0;
};

/// The propositional program handed to the translation/solving layer.
class GroundProgram {
 public:
  AtomId intern_atom(Term t);
  Term atom_term(AtomId id) const { return atoms_[id]; }
  std::size_t num_atoms() const { return atoms_.size(); }
  /// Lookup an existing atom id; nullopt if the term never appeared.
  std::optional<AtomId> find_atom(Term t) const;

  std::vector<AtomId> facts;  // unconditionally true
  std::vector<GRule> rules;
  std::vector<GChoice> choices;
  std::vector<GMinTerm> minimize;
  GroundStats stats;
  /// Null unless GroundOptions::record_provenance was set.
  std::shared_ptr<const Provenance> provenance;
  /// Null unless GroundOptions::profile was set.
  std::shared_ptr<const GroundProfile> profile;

 private:
  static constexpr AtomId kNoAtom = 0xffffffffu;
  std::vector<Term> atoms_;
  // Dense map from global term id to atom id (terms are interned integers,
  // so a flat vector beats hashing on this hot path).
  std::vector<AtomId> id_by_term_;
};

/// Feature gates for the grounder's optimized machinery.  Defaults enable
/// everything; `reference()` disables it all, yielding the naive
/// re-instantiation path the differential suite cross-checks against.
struct GroundOptions {
  bool semi_naive = true;   ///< delta-driven rounds vs full re-instantiation
  bool use_indexes = true;  ///< per-argument hash indexes vs full scans
  bool order_joins = true;  ///< selectivity join planner vs textual order
  /// Record derivation provenance (GroundProgram::provenance).  Off by
  /// default: the explanation path opts in; the solve hot path never pays.
  bool record_provenance = false;
  /// Accumulate per-source-rule cost counters (GroundProgram::profile).
  /// Off by default for the same reason.
  bool profile = false;

  static GroundOptions reference() {
    return {false, false, false, false, false};
  }
};

/// Ground `program`.  Throws AspError on programs outside the supported
/// fragment (unsafe rules are rejected earlier, at Program construction).
/// Same as ground_request(*ground_base(program, opts), {}, opts).
GroundProgram ground(const Program& program, const GroundOptions& opts = {});

/// The frozen grounding of a base program (defined in ground.cpp): possible
/// atoms per signature, certain atoms in closure order, and the instances
/// that can still emit under some request, all as flat arrays of 32-bit
/// term ids.
/// Immutable once built, so concurrent ground_request calls may share one.
struct GroundBase;

/// Run the fixpoint over `program` and freeze it.  The base keeps its own
/// copy of the rules a request's delta can re-join (every rule but the
/// facts), so it does not borrow `program`.  record_provenance / profile in
/// `opts` are recorded for the base's own instances.  `request_at` is the
/// rule index at which requests' rules are ordered (default: after the
/// base's): ground_request emits its statements in the order ground() emits
/// them for base[0, request_at) ∪ request ∪ base[request_at, end), whenever
/// the request changes no atom the base derives.
std::shared_ptr<const GroundBase> ground_base(
    const Program& program, const GroundOptions& opts = {},
    std::size_t request_at = SIZE_MAX);

/// Ground `base` ∪ `request`: restore the base, seed the request's facts,
/// instantiate its rules, resume the base's rules from the delta, then close
/// certainty and emit.  Equal to ground(base program ∪ request) as a set of
/// statements; a request rule instance that duplicates a base instance of a
/// different rule is emitted once more.  Throws AspError when `opts` asks
/// for provenance or profiling that the base was not built with.
GroundProgram ground_request(const GroundBase& base, const Program& request,
                             const GroundOptions& opts = {});

/// Approximate heap footprint of a frozen base.
std::size_t ground_base_bytes(const GroundBase& base);

/// The retained naive reference path: full re-instantiation, no indexes, no
/// join planning.  Produces the same ground program as `ground` modulo
/// rule/atom order; kept as the oracle for the differential test suite.
GroundProgram ground_reference(const Program& program);

}  // namespace splice::asp
