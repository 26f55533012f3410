#include "src/asp/translate.hpp"

#include <algorithm>

#include "src/support/flight.hpp"

namespace splice::asp {

using sat::Lit;
using sat::Var;

Translation::Translation(const GroundProgram& gp, bool guard_constraints,
                         bool profile)
    : gp_(gp), guard_constraints_(guard_constraints) {
  if (profile) origins_ = std::make_unique<ClauseOriginMap>();
  build();
}

/// Define `v <-> conjunction(lits)`.
void Translation::define_and(Var v, std::span<const Lit> lits) {
  std::vector<Lit>& back = clause_tmp_;
  back.assign(1, sat::mk_lit(v, true));
  for (Lit l : lits) {
    solver_->add_clause({sat::mk_lit(v, false), l}, cur_origin_);
    back.push_back(sat::negate(l));
  }
  solver_->add_clause(back, cur_origin_);
}

Lit Translation::new_guard(GuardTarget target) {
  Lit g = sat::mk_lit(solver_->new_var(), true);
  guards_.push_back(g);
  guard_targets_.push_back(target);
  return g;
}

void Translation::reserve(const std::vector<bool>& is_fact) {
  const std::size_t n = gp_.num_atoms();
  supports_ = AtomLists<Lit>(n);
  choice_supports_ = AtomLists<ChoiceSupport>(n);
  rules_by_head_ = AtomLists<std::uint32_t>(n);
  // Variables as build() creates them, and the clauses of two or more
  // literals it adds before level-0 simplification (units are not stored),
  // with their literals.
  std::size_t vars = 1 + n + gp_.minimize.size();
  std::size_t clauses = 0, lits = 0;
  std::size_t deps = 0;
  auto clause = [&](std::size_t size) {
    if (size >= 2) {
      ++clauses;
      lits += size;
    }
  };
  auto conjunction = [&](std::size_t size) {  // define_and over `size` lits
    ++vars;
    clauses += size + 1;
    lits += 3 * size + 1;
  };
  for (const GRule& r : gp_.rules) {
    if (!r.has_head) {
      clause(r.body.size() + (guard_constraints_ ? 1 : 0));
      vars += guard_constraints_ ? 1 : 0;
      continue;
    }
    if (r.body.size() >= 2) conjunction(r.body.size());
    clause(2);
    supports_.count(r.head);
    rules_by_head_.count(r.head);
  }
  for (const GChoice& c : gp_.choices) {
    if (c.body.size() >= 2) conjunction(c.body.size());
    std::size_t body_deps = 0;
    for (const GLit& l : c.body) body_deps += l.positive ? 1 : 0;
    for (const GChoiceElem& e : c.elements) {
      if (!e.condition.empty()) conjunction(1 + e.condition.size());
      conjunction(2);
      supports_.count(e.atom);
      choice_supports_.count(e.atom);
      deps += body_deps;
      for (const GLit& l : e.condition) deps += l.positive ? 1 : 0;
    }
    if (guard_constraints_) vars += 2;
    if (c.lower && *c.lower == 1) {
      clause(1 + c.elements.size() + (guard_constraints_ ? 1 : 0));
    }
  }
  for (AtomId a = 0; a < n; ++a) {
    if (!is_fact[a]) clause(1 + supports_.counted(a));
  }
  for (const GMinTerm& m : gp_.minimize) {
    for (const auto& cond : m.conditions) clause(1 + cond.size());
  }
  supports_.start_placing();
  choice_supports_.start_placing();
  rules_by_head_.start_placing();
  choice_deps_.reserve(deps);
  // Headroom for the optimization driver's bound guards, one per probe.
  constexpr std::size_t kGuardHeadroom = 32;
  solver_->reserve(vars + kGuardHeadroom, clauses, lits);
}

void Translation::build() {
  solver_ = std::make_unique<sat::Solver>();
  if (origins_) {
    solver_->enable_profiling(true);
    // Shared origins for clause families that never need per-instance
    // resolution; minted up front so they exist even when unused.
    cur_origin_ = tag(ClauseOriginMap::Kind::Internal);
    loop_origin_ = tag(ClauseOriginMap::Kind::LoopNogood);
    opt_origin_ = tag(ClauseOriginMap::Kind::OptBound);
  }
  std::vector<bool> is_fact(gp_.num_atoms(), false);
  for (AtomId a : gp_.facts) is_fact[a] = true;
  reserve(is_fact);

  // Constant-true variable simplifies empty bodies/conditions.
  true_var_ = solver_->new_var();
  solver_->add_clause({sat::mk_lit(true_var_, true)}, cur_origin_);

  atom_var_.resize(gp_.num_atoms());
  for (AtomId a = 0; a < gp_.num_atoms(); ++a) atom_var_[a] = solver_->new_var();

  const sat::Origin internal_origin = cur_origin_;
  if (origins_) cur_origin_ = tag(ClauseOriginMap::Kind::Fact);
  for (AtomId a : gp_.facts) {
    solver_->add_clause({atom_lit(a, true)}, cur_origin_);
  }

  // Normal rules and constraints.
  body_lit_.resize(gp_.rules.size());
  for (std::size_t ri = 0; ri < gp_.rules.size(); ++ri) {
    const GRule& r = gp_.rules[ri];
    if (origins_) {
      cur_origin_ = tag(ClauseOriginMap::Kind::Rule,
                        static_cast<std::uint32_t>(ri));
    }
    if (!r.has_head) {
      // Integrity constraint: not all body literals may hold.  In guarded
      // mode the clause carries !g, so it binds only while g is assumed.
      std::vector<Lit>& clause = clause_tmp_;
      clause.clear();
      if (guard_constraints_) {
        clause.push_back(sat::negate(
            new_guard({GuardTarget::Kind::Constraint, ri})));
      }
      for (const GLit& l : r.body) clause.push_back(glit({l.atom, !l.positive}));
      if (clause.empty()) {
        // ":- ." style absurdity; force UNSAT.
        solver_->add_clause({sat::mk_lit(true_var_, false)}, internal_origin);
      } else {
        solver_->add_clause(clause, cur_origin_);
      }
      body_lit_[ri] = sat::mk_lit(true_var_, true);  // unused
      continue;
    }
    Lit b = make_body(r.body);
    body_lit_[ri] = b;
    solver_->add_clause({sat::negate(b), atom_lit(r.head, true)}, cur_origin_);
    supports_.place(r.head, b);
    rules_by_head_.place(r.head, static_cast<std::uint32_t>(ri));
  }

  // Choice rules.
  for (std::size_t ci = 0; ci < gp_.choices.size(); ++ci) {
    const GChoice& c = gp_.choices[ci];
    if (origins_) {
      cur_origin_ = tag(ClauseOriginMap::Kind::Choice,
                        static_cast<std::uint32_t>(ci));
    }
    Lit b = make_body(c.body);
    std::vector<Lit> counts;
    counts.reserve(c.elements.size());
    for (const GChoiceElem& e : c.elements) {
      Lit elig;
      if (e.condition.empty()) {
        elig = b;
      } else {
        std::vector<Lit>& conj = body_tmp_;
        conj.assign(1, b);
        for (const GLit& l : e.condition) conj.push_back(glit(l));
        Var ev = solver_->new_var();
        define_and(ev, conj);
        elig = sat::mk_lit(ev, true);
      }
      supports_.place(e.atom, elig);
      ChoiceSupport cs;
      cs.elig = elig;
      cs.deps_begin = static_cast<std::uint32_t>(choice_deps_.size());
      for (const GLit& l : c.body) {
        if (l.positive) choice_deps_.push_back(l.atom);
      }
      for (const GLit& l : e.condition) {
        if (l.positive) choice_deps_.push_back(l.atom);
      }
      cs.deps_end = static_cast<std::uint32_t>(choice_deps_.size());
      choice_supports_.place(e.atom, cs);
      // Count literal: atom AND eligible.
      Var cv = solver_->new_var();
      const Lit count_conj[] = {atom_lit(e.atom, true), elig};
      define_and(cv, count_conj);
      counts.push_back(sat::mk_lit(cv, true));
    }
    auto k = static_cast<std::int64_t>(counts.size());
    if (c.upper) {
      // Guarded: sum(count) + (k - upper) g <= k enforces sum <= upper
      // exactly when g holds and is vacuous otherwise (sum <= k always).
      // When k <= upper the bound is vacuous outright — no constraint, no
      // guard, matching the unguarded translation's behavior.
      if (guard_constraints_) {
        if (k > *c.upper) {
          std::vector<std::pair<Lit, std::int64_t>> terms;
          for (Lit cl : counts) terms.emplace_back(cl, 1);
          Lit g = new_guard({GuardTarget::Kind::ChoiceUpper, ci});
          terms.emplace_back(g, k - *c.upper);
          solver_->add_pb_le(std::move(terms), k, cur_origin_);
        }
      } else {
        std::vector<std::pair<Lit, std::int64_t>> terms;
        for (Lit cl : counts) terms.emplace_back(cl, 1);
        solver_->add_pb_le(std::move(terms), *c.upper, cur_origin_);
      }
    }
    if (c.lower && *c.lower > 0) {
      if (*c.lower == 1) {
        std::vector<Lit>& clause = clause_tmp_;
        clause.clear();
        if (guard_constraints_) {
          clause.push_back(sat::negate(
              new_guard({GuardTarget::Kind::ChoiceLower, ci})));
        }
        clause.push_back(sat::negate(b));
        for (Lit cl : counts) clause.push_back(cl);
        solver_->add_clause(clause, cur_origin_);
      } else {
        // sum(!count) + lower*body <= k; guarded adds lower*g on the left
        // and lower on the right, so dropping the guard slackens the bound
        // by exactly the body contribution.
        std::vector<std::pair<Lit, std::int64_t>> terms;
        for (Lit cl : counts) terms.emplace_back(sat::negate(cl), 1);
        terms.emplace_back(b, *c.lower);
        std::int64_t bound = k;
        if (guard_constraints_) {
          Lit g = new_guard({GuardTarget::Kind::ChoiceLower, ci});
          terms.emplace_back(g, *c.lower);
          bound = k + *c.lower;
        }
        solver_->add_pb_le(std::move(terms), bound, cur_origin_);
      }
    }
  }

  // Completion: every non-fact atom needs some support.  Per-atom origins:
  // completion cost resolves through Provenance::atom_origin to the source
  // rule that (first) derived the atom.
  for (AtomId a = 0; a < gp_.num_atoms(); ++a) {
    if (is_fact[a]) continue;
    if (origins_) cur_origin_ = tag(ClauseOriginMap::Kind::Completion, a);
    std::vector<Lit>& clause = clause_tmp_;
    clause.assign(1, atom_lit(a, false));
    for (Lit s : supports_[a]) clause.push_back(s);
    solver_->add_clause(clause, cur_origin_);
  }

  // Minimize indicators: m true whenever any condition conjunction holds.
  min_var_.resize(gp_.minimize.size());
  for (std::size_t i = 0; i < gp_.minimize.size(); ++i) {
    if (origins_) {
      cur_origin_ = tag(ClauseOriginMap::Kind::Minimize,
                        static_cast<std::uint32_t>(i));
    }
    Var m = solver_->new_var();
    min_var_[i] = m;
    for (const auto& cond : gp_.minimize[i].conditions) {
      std::vector<Lit>& clause = clause_tmp_;
      clause.assign(1, sat::mk_lit(m, true));
      for (const GLit& l : cond) clause.push_back(glit({l.atom, !l.positive}));
      solver_->add_clause(clause, cur_origin_);
    }
  }
  cur_origin_ = sat::kNoOrigin;

  compute_sccs();
}

std::vector<std::pair<Lit, std::int64_t>> Translation::objective_terms(
    std::int64_t priority) const {
  std::vector<std::pair<Lit, std::int64_t>> out;
  for (std::size_t i = 0; i < gp_.minimize.size(); ++i) {
    if (gp_.minimize[i].priority == priority && gp_.minimize[i].weight > 0) {
      out.emplace_back(sat::mk_lit(min_var_[i], true), gp_.minimize[i].weight);
    }
  }
  return out;
}

std::int64_t Translation::eval_cost(std::int64_t priority) const {
  std::int64_t cost = 0;
  for (const GMinTerm& m : gp_.minimize) {
    if (m.priority != priority) continue;
    for (const auto& cond : m.conditions) {
      if (model_body(cond)) {
        cost += m.weight;
        break;
      }
    }
  }
  return cost;
}

std::vector<std::vector<Lit>> Translation::unfounded_nogoods() const {
  if (tight_) return {};
  std::vector<bool> in_u(gp_.num_atoms(), false);
  std::vector<AtomId> u;
  for (AtomId a = 0; a < gp_.num_atoms(); ++a) {
    if (scc_nontrivial_[a] && model_atom(a)) {
      in_u[a] = true;
      u.push_back(a);
    }
  }
  bool changed = true;
  while (changed && !u.empty()) {
    changed = false;
    std::vector<AtomId> rest;
    for (AtomId a : u) {
      bool justified = false;
      for (const ChoiceSupport& cs : choice_supports_[a]) {
        if (!lit_true(cs.elig)) continue;
        bool internal = false;
        for (AtomId d : pos_deps(cs)) {
          if (in_u[d]) {
            internal = true;
            break;
          }
        }
        if (!internal) {
          justified = true;
          break;
        }
      }
      if (!justified) {
        for (std::size_t ri : rules_by_head_[a]) {
          const GRule& r = gp_.rules[ri];
          if (!model_body(r.body)) continue;
          bool internal = false;
          for (const GLit& l : r.body) {
            if (l.positive && in_u[l.atom]) {
              internal = true;
              break;
            }
          }
          if (!internal) {
            justified = true;
            break;
          }
        }
      }
      if (justified) {
        in_u[a] = false;
        changed = true;
      } else {
        rest.push_back(a);
      }
    }
    u = std::move(rest);
  }
  // Loop formula: the external support of the unfounded set as a whole.
  // If no external body of U holds, every atom of U must be false.
  std::vector<Lit> external;
  for (AtomId a : u) {
    for (std::size_t ri : rules_by_head_[a]) {
      const GRule& r = gp_.rules[ri];
      bool internal = false;
      for (const GLit& l : r.body) {
        if (l.positive && in_u[l.atom]) {
          internal = true;
          break;
        }
      }
      if (!internal) external.push_back(body_lit_[ri]);
    }
    for (const ChoiceSupport& cs : choice_supports_[a]) {
      bool internal = false;
      for (AtomId d : pos_deps(cs)) {
        if (in_u[d]) {
          internal = true;
          break;
        }
      }
      if (!internal) external.push_back(cs.elig);
    }
  }
  std::vector<std::vector<Lit>> nogoods;
  for (AtomId a : u) {
    std::vector<Lit> clause{atom_lit(a, false)};
    clause.insert(clause.end(), external.begin(), external.end());
    nogoods.push_back(std::move(clause));
  }
  return nogoods;
}

/// A literal equivalent to the conjunction of a rule body.
Lit Translation::make_body(const std::vector<GLit>& body) {
  if (body.empty()) return sat::mk_lit(true_var_, true);
  if (body.size() == 1) return glit(body[0]);
  Var bv = solver_->new_var();
  std::vector<Lit>& lits = body_tmp_;
  lits.clear();
  for (const GLit& l : body) lits.push_back(glit(l));
  define_and(bv, lits);
  return sat::mk_lit(bv, true);
}

/// Tarjan SCCs over the positive atom dependency graph; marks atoms in
/// non-trivial SCCs, which are the only unfounded-set candidates.  Choice
/// rules contribute edges too (element atom -> positive body/condition
/// atoms): a choice whose body circles back through its own element is
/// just as capable of unfounded self-support as a normal rule.
void Translation::compute_sccs() {
  std::size_t n = gp_.num_atoms();
  scc_nontrivial_.assign(n, false);
  AtomLists<AtomId> edges(n);  // head -> positive body atoms
  std::vector<bool> self_loop(n, false);
  // Two passes over the same edges: count, then place.
  auto for_each_edge = [&](auto&& add) {
    for (const GRule& r : gp_.rules) {
      if (!r.has_head) continue;
      for (const GLit& l : r.body) {
        if (l.positive) add(r.head, l.atom);
      }
    }
    for (AtomId a = 0; a < n; ++a) {
      for (const ChoiceSupport& cs : choice_supports_[a]) {
        for (AtomId d : pos_deps(cs)) add(a, d);
      }
    }
  };
  for_each_edge([&](AtomId head, AtomId) { edges.count(head); });
  edges.start_placing();
  for_each_edge([&](AtomId head, AtomId dep) {
    if (dep == head) self_loop[head] = true;
    edges.place(head, dep);
  });
  // Iterative Tarjan.
  std::vector<int> index(n, -1), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<AtomId> stack;
  int next_index = 0;
  struct Frame {
    AtomId v;
    std::size_t child;
  };
  std::vector<Frame> frames;  // empty between roots; reused
  for (AtomId root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    frames.push_back({root, 0});
    index[root] = low[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.child < edges[f.v].size()) {
        AtomId w = edges[f.v][f.child++];
        if (index[w] == -1) {
          index[w] = low[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          low[f.v] = std::min(low[f.v], index[w]);
        }
      } else {
        if (low[f.v] == index[f.v]) {
          // The component is the stack's suffix from f.v up.
          std::size_t first = stack.size();
          do {
            --first;
          } while (stack[first] != f.v);
          bool nontrivial = stack.size() - first > 1 || self_loop[f.v];
          for (std::size_t k = first; k < stack.size(); ++k) {
            on_stack[stack[k]] = false;
            if (nontrivial) scc_nontrivial_[stack[k]] = true;
          }
          if (nontrivial) tight_ = false;
          stack.resize(first);
        }
        AtomId done = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[done]);
        }
      }
    }
  }
}

sat::Solver::Result solve_stable(Translation& tr,
                                 const std::vector<Lit>& assumptions,
                                 SolveStats& stats) {
  flight::Recorder& rec = flight::Recorder::global();
  while (true) {
    if (tr.solver().solve(assumptions) == sat::Solver::Result::Unsat) {
      return sat::Solver::Result::Unsat;
    }
    ++stats.models_enumerated;
    auto conflicts = static_cast<std::int64_t>(tr.solver().stats().conflicts);
    auto nogoods = tr.unfounded_nogoods();
    if (nogoods.empty()) {
      rec.emit(flight::EventKind::ModelFound,
               static_cast<std::int64_t>(stats.models_enumerated), conflicts,
               {}, flight::Phase::Solve);
      return sat::Solver::Result::Sat;
    }
    for (auto& ng : nogoods) {
      ++stats.loop_nogoods;
      tr.solver().add_clause(std::move(ng), tr.loop_nogood_origin());
    }
    rec.emit(flight::EventKind::LoopNogood, conflicts, 0, {},
             flight::Phase::Solve);
  }
}

}  // namespace splice::asp
