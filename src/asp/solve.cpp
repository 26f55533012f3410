#include "src/asp/solve.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "src/asp/sat.hpp"
#include "src/asp/translate.hpp"
#include "src/support/error.hpp"
#include "src/support/flight.hpp"
#include "src/support/strings.hpp"
#include "src/support/trace.hpp"

namespace splice::asp {

using sat::Lit;

json::Value SolveStats::to_json() const {
  json::Object o;
  o["ground_seconds"] = ground_seconds;
  o["translate_seconds"] = translate_seconds;
  o["solve_seconds"] = solve_seconds;
  o["total_seconds"] = total_seconds();
  o["sat_vars"] = sat_vars;
  o["sat_clauses"] = sat_clauses;
  o["conflicts"] = conflicts;
  o["decisions"] = decisions;
  o["propagations"] = propagations;
  o["restarts"] = restarts;
  o["models_enumerated"] = models_enumerated;
  o["loop_nogoods"] = loop_nogoods;
  o["ground"] = ground.to_json();
  return json::Value(std::move(o));
}

std::vector<Term> Model::with_signature(std::string_view sig) const {
  return std::move(with_signatures({sig}).front());
}

std::vector<std::vector<Term>> Model::with_signatures(
    std::initializer_list<std::string_view> sigs) const {
  // Resolve each "name/arity" to an interned signature id once, then filter
  // by integer comparison instead of rendering a string per atom.  A
  // malformed signature matches nothing.
  std::vector<std::optional<SigId>> want;
  for (std::string_view sig : sigs) {
    std::size_t slash = sig.rfind('/');
    std::optional<std::uint64_t> arity =
        slash == std::string_view::npos ? std::nullopt
                                        : parse_count(sig.substr(slash + 1));
    want.push_back(arity ? std::optional<SigId>(Term::intern_sig(
                               sig.substr(0, slash), *arity))
                         : std::nullopt);
  }
  std::vector<std::vector<Term>> out(want.size());
  for (Term t : atoms) {
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (want[i] == t.sig()) out[i].push_back(t);
    }
  }
  for (std::vector<Term>& terms : out) std::sort(terms.begin(), terms.end());
  return out;
}

SolveResult solve_ground(const GroundProgram& gp, const SolveOptions& opts) {
  SolveResult result;
  result.stats.ground = gp.stats;
  result.stats.ground_seconds = gp.stats.seconds;

  flight::Recorder& flightrec = flight::Recorder::global();
  trace::Span span("solve", "asp");

  std::unique_ptr<Translation> tr;
  {
    trace::Span ts("translate", "asp");
    tr = std::make_unique<Translation>(gp, /*guard_constraints=*/false,
                                       opts.profile);
    result.stats.translate_seconds = ts.end();
  }
  result.stats.sat_vars = tr->solver().num_vars();
  result.stats.sat_clauses = tr->solver().num_clauses();
  span.attr("sat_vars", result.stats.sat_vars);
  span.attr("sat_clauses", result.stats.sat_clauses);

  // (priority, bound) pairs already fixed by finished levels.
  std::vector<std::pair<std::int64_t, std::int64_t>> fixed_bounds;

  // The incumbent is the SAT model's bits, copied at each improvement; the
  // atom set is built once, for the optimum.
  auto model_of = [&](const std::vector<bool>& bits) {
    Model m;
    std::size_t n = 0;
    for (AtomId a = 0; a < gp.num_atoms(); ++a) n += tr->model_atom(bits, a);
    m.atoms.reserve(n);
    for (AtomId a = 0; a < gp.num_atoms(); ++a) {
      if (tr->model_atom(bits, a)) m.atoms.insert(gp.atom_term(a));
    }
    return m;
  };

  auto finish_stats = [&](Translation& t) {
    result.stats.conflicts += t.solver().stats().conflicts;
    result.stats.decisions += t.solver().stats().decisions;
    result.stats.propagations += t.solver().stats().propagations;
    result.stats.restarts += t.solver().stats().restarts;
  };

  // Snapshot the three profiling layers into a self-contained payload (the
  // translation and solver die with this call).
  auto capture_profile = [&](Translation& t) {
    if (!opts.profile) return;
    auto pd = std::make_shared<ProfileData>();
    pd->ground = gp.profile;
    pd->provenance = gp.provenance;
    if (t.origins() != nullptr) pd->origins = *t.origins();
    if (t.solver().profile() != nullptr) pd->sat = *t.solver().profile();
    pd->sat_stats = t.solver().stats();
    pd->ground_stats = gp.stats;
    pd->atom_terms.reserve(gp.num_atoms());
    for (AtomId a = 0; a < gp.num_atoms(); ++a) {
      pd->atom_terms.push_back(gp.atom_term(a));
    }
    result.profile = std::move(pd);
  };

  if (solve_stable(*tr, {}, result.stats) == sat::Solver::Result::Unsat) {
    finish_stats(*tr);
    capture_profile(*tr);
    result.sat = false;
    span.attr("sat", false);
    span.attr("conflicts", result.stats.conflicts);
    result.stats.solve_seconds = span.end() - result.stats.translate_seconds;
    return result;
  }
  result.sat = true;
  std::vector<bool> best_bits = tr->solver().model();

  // Collect distinct priorities, highest first.
  std::vector<std::int64_t> priorities;
  for (const GMinTerm& m : gp.minimize) {
    if (std::find(priorities.begin(), priorities.end(), m.priority) ==
        priorities.end()) {
      priorities.push_back(m.priority);
    }
  }
  std::sort(priorities.rbegin(), priorities.rend());

  // Lexicographic branch-and-bound over one persistent solver.  Tentative
  // bounds are guard-activated PB constraints:
  //
  //   sum(w_i x_i) + (W - B) g  <=  W      (W = total level weight)
  //
  // which enforces sum <= B exactly when the guard g is assumed true and
  // is vacuous otherwise.  Solving under the assumption {g} probes the
  // bound; afterwards the unit clause {!g} retires the constraint for
  // good.  Learned clauses mentioning g all contain !g (g is a decision,
  // so conflict analysis cannot resolve it away), so they are satisfied —
  // not lost — once g is retired; everything else the solver learned
  // stays valid across bounds *and* across priority levels.
  for (std::int64_t prio : priorities) {
    trace::Span level_span("optimize_level", "asp");
    level_span.attr("priority", prio);
    // The optimum model of the previous level persists in the solver's
    // model snapshot (Unsat-under-assumption does not clear it).
    std::int64_t best_cost = tr->eval_cost(prio);
    auto terms = tr->objective_terms(prio);
    std::int64_t total_weight = 0;
    for (const auto& [l, w] : terms) total_weight += w;
    // Tighten within this level until the bound probe comes back UNSAT.
    while (best_cost > 0) {
      Lit guard = sat::mk_lit(tr->solver().new_var(), true);
      auto bounded = terms;
      bounded.emplace_back(guard, total_weight - (best_cost - 1));
      if (!tr->solver().add_pb_le(std::move(bounded), total_weight,
                                  tr->opt_bound_origin())) {
        break;  // database already contradicts any tighter bound
      }
      auto res = solve_stable(*tr, {guard}, result.stats);
      tr->solver().add_clause({sat::negate(guard)}, tr->opt_bound_origin());
      if (res == sat::Solver::Result::Unsat) break;
      best_cost = tr->eval_cost(prio);
      best_bits = tr->solver().model();
      flightrec.emit(flight::EventKind::BoundImproved, best_cost, prio, {},
                     flight::Phase::Solve);
    }
    fixed_bounds.emplace_back(prio, best_cost);
    flightrec.emit(flight::EventKind::LevelDone, best_cost, prio, {},
                   flight::Phase::Solve);
    level_span.attr("cost", best_cost);
    // Pin this level's optimum permanently before descending.
    if (prio != priorities.back()) {
      tr->solver().add_pb_le(std::move(terms), best_cost,
                             tr->opt_bound_origin());
    }
  }

  finish_stats(*tr);
  capture_profile(*tr);
  result.model = model_of(best_bits);
  result.model.costs = std::move(fixed_bounds);
  span.attr("sat", true);
  span.attr("conflicts", result.stats.conflicts);
  span.attr("decisions", result.stats.decisions);
  span.attr("models_enumerated", result.stats.models_enumerated);
  span.attr("loop_nogoods", result.stats.loop_nogoods);
  result.stats.solve_seconds = span.end() - result.stats.translate_seconds;
  return result;
}

SolveResult solve_program(const Program& program, const SolveOptions& opts) {
  GroundProgram gp = ground(program);
  return solve_ground(gp, opts);
}

std::vector<Model> enumerate_models(const GroundProgram& gp, std::size_t limit) {
  Translation tr(gp);
  SolveStats scratch;
  std::vector<Model> models;
  while (limit == 0 || models.size() < limit) {
    if (solve_stable(tr, {}, scratch) == sat::Solver::Result::Unsat) break;
    Model m;
    std::vector<Lit> block;
    block.reserve(gp.num_atoms());
    for (AtomId a = 0; a < gp.num_atoms(); ++a) {
      bool value = tr.model_atom(a);
      if (value) m.atoms.insert(gp.atom_term(a));
      // Exclude any assignment with the same atom projection.
      block.push_back(tr.atom_lit(a, !value));
    }
    models.push_back(std::move(m));
    if (block.empty() || !tr.solver().add_clause(std::move(block))) break;
  }
  return models;
}

std::vector<Model> enumerate_models(const Program& program, std::size_t limit) {
  GroundProgram gp = ground(program);
  return enumerate_models(gp, limit);
}

}  // namespace splice::asp
