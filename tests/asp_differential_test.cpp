// Differential tests: the optimized grounder (per-argument indexes, join
// planning, semi-naive delta evaluation) against the retained naive
// reference path (ground_reference), over a seeded random-program
// generator.
//
// For every seed the two grounders must produce IDENTICAL ground programs
// modulo atom/rule order — not merely equivalent ones; the deterministic
// certain-closure in the grounder exists precisely to make this canonical
// comparison possible.  On top of that, every model the (reusable,
// incremental) solver returns is re-checked with verify_model, and the
// optimized and reference pipelines must agree on satisfiability and on the
// full lexicographic cost vector.
//
// Failures print the generating seed; re-running the single
// `Seeds/DifferentialTest.OptimizedMatchesReference/<seed>` case reproduces
// it deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "src/asp/asp.hpp"
#include "src/support/error.hpp"
#include "src/support/flight.hpp"

namespace splice::asp {
namespace {

// ---- canonical rendering ---------------------------------------------------

std::string lit_str(const GroundProgram& gp, const GLit& l) {
  std::string out = l.positive ? "" : "not ";
  return out + gp.atom_term(l.atom).str_repr();
}

std::string joined(std::vector<std::string> parts) {
  std::sort(parts.begin(), parts.end());
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out += ", ";
    out += p;
  }
  return out;
}

std::string body_str(const GroundProgram& gp, const std::vector<GLit>& body) {
  std::vector<std::string> parts;
  for (const GLit& l : body) parts.push_back(lit_str(gp, l));
  return joined(std::move(parts));
}

/// Render a ground program as a sorted multiset of statement strings; two
/// programs are identical modulo atom/rule order iff these renderings match.
std::vector<std::string> canonical(const GroundProgram& gp) {
  std::vector<std::string> out;
  for (AtomId f : gp.facts) out.push_back("fact " + gp.atom_term(f).str_repr());
  for (const GRule& r : gp.rules) {
    std::string head = r.has_head ? gp.atom_term(r.head).str_repr() : "#false";
    out.push_back("rule " + head + " :- " + body_str(gp, r.body));
  }
  for (const GChoice& c : gp.choices) {
    std::vector<std::string> elems;
    for (const GChoiceElem& e : c.elements) {
      elems.push_back(gp.atom_term(e.atom).str_repr() + " : " +
                      body_str(gp, e.condition));
    }
    std::string bounds =
        (c.lower ? std::to_string(*c.lower) : "_") + ".." +
        (c.upper ? std::to_string(*c.upper) : "_");
    out.push_back("choice " + bounds + " { " + joined(std::move(elems)) +
                  " } :- " + body_str(gp, c.body));
  }
  for (const GMinTerm& m : gp.minimize) {
    std::vector<std::string> conds;
    for (const auto& cond : m.conditions) conds.push_back(body_str(gp, cond));
    out.push_back("min " + std::to_string(m.weight) + "@" +
                  std::to_string(m.priority) + " [" + m.tuple_repr + "] { " +
                  joined(std::move(conds)) + " }");
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---- random program generator ---------------------------------------------

/// Seeded generator of safe programs over a small vocabulary: EDB facts,
/// normal/choice/constraint rules with negation and comparisons, cardinality
/// bounds, and #minimize statements.  Safety holds by construction: head,
/// negative, and comparison variables are drawn from the positive body's
/// variables.
class ProgramGen {
 public:
  explicit ProgramGen(unsigned seed) : rng_(seed) {}

  Program generate() {
    Program p;
    // EDB facts over e0/1 and e1/2.
    for (int i = 0; i < 4; ++i) {
      if (chance(55)) p.add_fact(Term::fun("e0", {constant(i)}));
    }
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        if (chance(30)) p.add_fact(Term::fun("e1", {constant(i), constant(j)}));
      }
    }
    int nrules = irand(3, 8);
    for (int i = 0; i < nrules; ++i) add_random_rule(p);
    int nmin = irand(0, 2);
    for (int i = 0; i < nmin; ++i) add_random_minimize(p);
    return p;
  }

 private:
  int irand(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  bool chance(int percent) { return irand(1, 100) <= percent; }

  Term constant(int i) { return Term::sym("c" + std::to_string(i)); }
  Term variable(int i) { return Term::var("V" + std::to_string(i)); }

  /// An argument term: a variable (recorded in `vars`) or a constant.
  Term arg(std::vector<Term>& vars) {
    if (chance(60)) {
      Term v = variable(irand(0, 2));
      if (std::find(vars.begin(), vars.end(), v) == vars.end()) {
        vars.push_back(v);
      }
      return v;
    }
    return constant(irand(0, 3));
  }

  /// An argument drawn only from already-bound variables and constants.
  Term bound_arg(const std::vector<Term>& vars) {
    if (!vars.empty() && chance(65)) {
      return vars[static_cast<std::size_t>(irand(0, static_cast<int>(vars.size()) - 1))];
    }
    return constant(irand(0, 3));
  }

  Term atom(const char* name, int arity, std::vector<Term>& vars) {
    if (arity == 1) return Term::fun(name, {arg(vars)});
    return Term::fun(name, {arg(vars), arg(vars)});
  }

  Term bound_atom(const char* name, int arity, const std::vector<Term>& vars) {
    if (arity == 1) return Term::fun(name, {bound_arg(vars)});
    return Term::fun(name, {bound_arg(vars), bound_arg(vars)});
  }

  /// Pick a predicate (name, arity): EDB or IDB.
  std::pair<const char*, int> any_pred() {
    switch (irand(0, 4)) {
      case 0: return {"e0", 1};
      case 1: return {"e1", 2};
      case 2: return {"p0", 1};
      case 3: return {"p1", 2};
      default: return {"q", 1};
    }
  }

  std::pair<const char*, int> idb_pred() {
    switch (irand(0, 2)) {
      case 0: return {"p0", 1};
      case 1: return {"p1", 2};
      default: return {"q", 1};
    }
  }

  void add_random_rule(Program& p) {
    Rule r;
    std::vector<Term> vars;
    int npos = irand(1, 3);
    for (int i = 0; i < npos; ++i) {
      auto [name, arity] = any_pred();
      r.body.push_back({atom(name, arity, vars), true});
    }
    int nneg = irand(0, 2);
    for (int i = 0; i < nneg; ++i) {
      auto [name, arity] = any_pred();
      r.body.push_back({bound_atom(name, arity, vars), false});
    }
    if (!vars.empty() && chance(30)) {
      CmpOp op = chance(50) ? CmpOp::Ne : CmpOp::Lt;
      r.comparisons.push_back({op, bound_arg(vars), bound_arg(vars)});
    }

    int kind = irand(1, 100);
    if (kind <= 55) {
      auto [name, arity] = idb_pred();
      r.head.kind = Head::Kind::Atom;
      r.head.atom = bound_atom(name, arity, vars);
    } else if (kind <= 75) {
      r.head.kind = Head::Kind::None;  // integrity constraint
    } else {
      r.head.kind = Head::Kind::Choice;
      int nelem = irand(1, 2);
      for (int i = 0; i < nelem; ++i) {
        ChoiceElement e;
        auto [name, arity] = idb_pred();
        e.atom = bound_atom(name, arity, vars);
        if (chance(40)) {
          auto [cn, ca] = any_pred();
          e.condition.push_back({bound_atom(cn, ca, vars), true});
        }
        r.head.elements.push_back(std::move(e));
      }
      if (chance(60)) r.head.lower = irand(0, 1);
      if (chance(60)) r.head.upper = irand(1, 2);
      if (r.head.lower && r.head.upper && *r.head.lower > *r.head.upper) {
        std::swap(*r.head.lower, *r.head.upper);
      }
    }
    p.add_rule(std::move(r));
  }

  void add_random_minimize(Program& p) {
    MinimizeElement m;
    std::vector<Term> vars;
    auto [name, arity] = idb_pred();
    m.condition.push_back({atom(name, arity, vars), true});
    if (chance(40)) {
      auto [n2, a2] = any_pred();
      m.condition.push_back({bound_atom(n2, a2, vars), true});
    }
    m.weight = Term::integer(irand(1, 3));
    m.priority = irand(1, 2);
    m.tuple = vars;  // distinct tuples per binding
    p.add_minimize(std::move(m));
  }

  std::mt19937 rng_;
};

// ---- differential check ----------------------------------------------------

class DifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DifferentialTest, OptimizedMatchesReference) {
  unsigned seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Program p = ProgramGen(seed).generate();

  GroundProgram opt = ground(p);
  GroundProgram ref = ground_reference(p);

  // Identical programs modulo atom/rule order.
  EXPECT_EQ(canonical(opt), canonical(ref)) << "seed=" << seed;
  EXPECT_EQ(opt.stats.possible_atoms, ref.stats.possible_atoms)
      << "seed=" << seed;
  EXPECT_EQ(opt.stats.certain_atoms, ref.stats.certain_atoms)
      << "seed=" << seed;

  // Both pipelines agree on satisfiability and the optimal cost vector, and
  // every returned model passes independent verification.
  SolveResult r_opt = solve_ground(opt);
  SolveResult r_ref = solve_ground(ref);
  ASSERT_EQ(r_opt.sat, r_ref.sat) << "seed=" << seed;

  // Profiler conservation invariants, on every generated program (sat and
  // unsat alike): a profiled run of the same pipeline must partition the
  // solver's and grounder's own totals exactly — no invented or dropped
  // cost — and agree with the unprofiled run on the result.
  {
    GroundOptions gopts;
    gopts.record_provenance = true;
    gopts.profile = true;
    GroundProgram gprof = ground(p, gopts);
    SolveOptions sopts;
    sopts.profile = true;
    SolveResult r_prof = solve_ground(gprof, sopts);
    EXPECT_EQ(r_prof.sat, r_opt.sat) << "seed=" << seed;
    ASSERT_NE(r_prof.profile, nullptr) << "seed=" << seed;
    const ProfileData& pd = *r_prof.profile;

    std::uint64_t props = pd.sat.unattributed.propagations;
    std::uint64_t confls = pd.sat.unattributed.conflicts;
    std::uint64_t learned = 0;
    for (const auto& c : pd.sat.per_origin) {
      props += c.propagations;
      confls += c.conflicts;
      learned += c.learned;
    }
    EXPECT_EQ(props, pd.sat_stats.propagations) << "seed=" << seed;
    EXPECT_EQ(confls, pd.sat_stats.conflicts) << "seed=" << seed;
    // Every learned clause resolves to >= 1 tagged ancestor or lands in the
    // explicit no-origin bucket.
    EXPECT_LE(pd.sat.learned_without_origin, pd.sat.learned_total)
        << "seed=" << seed;
    EXPECT_GE(learned, pd.sat.learned_total - pd.sat.learned_without_origin)
        << "seed=" << seed;

    ASSERT_NE(pd.ground, nullptr) << "seed=" << seed;
    std::uint64_t rules = 0;
    std::uint64_t choices = 0;
    for (const auto& rc : pd.ground->per_rule) {
      rules += rc.emitted_rules;
      choices += rc.emitted_choices;
    }
    EXPECT_EQ(rules, pd.ground_stats.rules) << "seed=" << seed;
    EXPECT_EQ(choices, pd.ground_stats.choices) << "seed=" << seed;

    // Aggregation re-partitions the same totals across directive, predicate
    // and bucket rows.
    Profile prof = aggregate_profile(pd, p);
    std::uint64_t agg_props = 0;
    std::uint64_t agg_confls = 0;
    for (const Profile::Row& row : prof.directives) {
      agg_props += row.sat.propagations;
      agg_confls += row.sat.conflicts;
    }
    for (const Profile::Row& row : prof.buckets) {
      agg_props += row.sat.propagations;
      agg_confls += row.sat.conflicts;
    }
    EXPECT_EQ(agg_props, prof.sat_totals.propagations) << "seed=" << seed;
    EXPECT_EQ(agg_confls, prof.sat_totals.conflicts) << "seed=" << seed;
  }
  if (!r_opt.sat) return;

  VerifyResult v_opt = verify_model(opt, r_opt.model);
  EXPECT_TRUE(v_opt.ok) << v_opt.str() << "seed=" << seed;
  VerifyResult v_ref = verify_model(ref, r_ref.model);
  EXPECT_TRUE(v_ref.ok) << v_ref.str() << "seed=" << seed;
  EXPECT_EQ(r_opt.model.costs, r_ref.model.costs) << "seed=" << seed;

  // A sample of enumerated models must verify too (the enumerator reuses
  // the same incremental solver with blocking clauses).
  for (const Model& m : enumerate_models(opt, 8)) {
    VerifyResult v = verify_model(opt, m);
    EXPECT_TRUE(v.ok) << v.str() << "seed=" << seed;
  }
}

// 250 seeded cases (the harness requirement is >= 200).
INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range(0u, 250u));

// ---- base/request split ----------------------------------------------------

/// `p` split at a seeded point: the base holds the rules (facts included)
/// and #minimize elements before it, the request the rest, so base ∪
/// request is `p` in order.
std::pair<Program, Program> split(const Program& p, unsigned seed) {
  std::mt19937 rng(seed ^ 0x5eedu);
  auto cut = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n)(rng);
  };
  std::size_t rule_cut = cut(p.rules().size());
  std::size_t min_cut = cut(p.minimizes().size());
  Program base;
  Program request;
  for (std::size_t i = 0; i < p.rules().size(); ++i) {
    (i < rule_cut ? base : request).add_rule(p.rules()[i]);
  }
  for (std::size_t i = 0; i < p.minimizes().size(); ++i) {
    (i < min_cut ? base : request).add_minimize(p.minimizes()[i]);
  }
  return {std::move(base), std::move(request)};
}

/// The canonical rendering as a set: a request rule may re-emit a statement
/// a base rule already produced (ground_request's documented duplicate).
std::vector<std::string> as_set(std::vector<std::string> statements) {
  statements.erase(std::unique(statements.begin(), statements.end()),
                   statements.end());
  return statements;
}

class GroundReuseTest : public ::testing::TestWithParam<unsigned> {};

// Resuming a frozen base from a request's delta must ground exactly what
// one-shot grounding of base ∪ request grounds, for the optimized and the
// reference engine alike, with and without provenance/profiling.
TEST_P(GroundReuseTest, ResumedBaseMatchesOneShot) {
  unsigned seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Program p = ProgramGen(seed).generate();
  auto [base, request] = split(p, seed);

  std::shared_ptr<const GroundBase> frozen = ground_base(base);
  GroundProgram resumed = ground_request(*frozen, request);
  GroundProgram whole = ground(p);
  GroundProgram ref = ground_reference(p);
  std::vector<std::string> want = as_set(canonical(whole));
  EXPECT_EQ(as_set(canonical(resumed)), want);
  EXPECT_EQ(as_set(canonical(ref)), want);
  EXPECT_EQ(resumed.stats.possible_atoms, whole.stats.possible_atoms);
  EXPECT_EQ(resumed.stats.certain_atoms, whole.stats.certain_atoms);

  // A base serves any number of requests: resuming it again is identical,
  // statement for statement and in order.
  GroundProgram again = ground_request(*frozen, request);
  std::vector<std::string> first = canonical(resumed);
  EXPECT_EQ(canonical(again), first);
  EXPECT_EQ(again.rules.size(), resumed.rules.size());
  EXPECT_EQ(again.num_atoms(), resumed.num_atoms());

  GroundOptions refopts = GroundOptions::reference();
  GroundProgram ref_resumed =
      ground_request(*ground_base(base, refopts), request, refopts);
  EXPECT_EQ(as_set(canonical(ref_resumed)), want);

  GroundOptions traced;
  traced.record_provenance = true;
  traced.profile = true;
  GroundProgram prof =
      ground_request(*ground_base(base, traced), request, traced);
  EXPECT_EQ(canonical(prof), first);
  ASSERT_NE(prof.provenance, nullptr);
  ASSERT_NE(prof.profile, nullptr);
  EXPECT_EQ(prof.provenance->rule_origin.size(), prof.rules.size());
  EXPECT_EQ(prof.provenance->choice_origin.size(), prof.choices.size());
  std::uint64_t rules = 0;
  std::uint64_t choices = 0;
  for (const auto& rc : prof.profile->per_rule) {
    rules += rc.emitted_rules;
    choices += rc.emitted_choices;
  }
  EXPECT_EQ(prof.profile->per_rule.size(), p.rules().size());
  EXPECT_EQ(rules, prof.stats.rules);
  EXPECT_EQ(choices, prof.stats.choices);
  // A base without provenance cannot grant it to a request.
  EXPECT_THROW(ground_request(*frozen, request, traced), AspError);

  SolveResult r_resumed = solve_ground(resumed);
  SolveResult r_whole = solve_ground(whole);
  ASSERT_EQ(r_resumed.sat, r_whole.sat);
  if (!r_resumed.sat) return;
  EXPECT_EQ(r_resumed.model.costs, r_whole.model.costs);
  VerifyResult v = verify_model(resumed, r_resumed.model);
  EXPECT_TRUE(v.ok) << v.str();
}

INSTANTIATE_TEST_SUITE_P(SplitSeeds, GroundReuseTest,
                         ::testing::Range(0u, 250u));

// One split per resume mechanism the random programs reach only rarely:
// a request fact flipping a base negation, a request atom re-joining a
// base rule, a request fact widening a base choice, and a #minimize
// element matching a request atom.
TEST(GroundReuseCases, EachResumeMechanismMatchesOneShot) {
  const std::pair<const char*, const char*> cases[] = {
      {"p :- not q. r :- p. s :- r.", "q."},
      {"e(1). e(2). t(X) :- e(X), u(X). v(X) :- t(X), e(X).", "u(2)."},
      {"go. opt(a). 1 { pick(X) : opt(X) } 1 :- go.", "opt(b)."},
      {"{ pick(a) }. #minimize { 1@1,X : pick(X), not skip(X) }.",
       "{ pick(b) }. skip(a)."},
  };
  for (const auto& [base_text, request_text] : cases) {
    SCOPED_TRACE(std::string(base_text) + " | " + request_text);
    Program base = parse_program(base_text);
    Program request = parse_program(request_text);
    Program whole = base;
    whole.extend(request);
    GroundProgram resumed = ground_request(*ground_base(base), request);
    GroundProgram once = ground(whole);
    EXPECT_EQ(as_set(canonical(resumed)), as_set(canonical(once)));
    EXPECT_EQ(resumed.stats.certain_atoms, once.stats.certain_atoms);
  }
}

// ---- each optimization gated individually ----------------------------------

// Single-knob ablations: any one optimization off must still match the
// fully-optimized grounding (catches interactions between the knobs).
TEST(DifferentialAblation, EachKnobIndependentlyConsistent) {
  for (unsigned seed : {3u, 17u, 58u, 91u, 144u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Program p = ProgramGen(seed).generate();
    std::vector<std::string> want = canonical(ground(p));
    GroundOptions no_semi;
    no_semi.semi_naive = false;
    GroundOptions no_index;
    no_index.use_indexes = false;
    GroundOptions no_order;
    no_order.order_joins = false;
    EXPECT_EQ(canonical(ground(p, no_semi)), want) << "semi_naive off";
    EXPECT_EQ(canonical(ground(p, no_index)), want) << "use_indexes off";
    EXPECT_EQ(canonical(ground(p, no_order)), want) << "order_joins off";
  }
}

// ---- stats audit (satellite: counters on the new code paths) ---------------

TEST(StatsAudit, GroundCountersNonzeroAndMonotone) {
  auto chain = [](int n) {
    std::string text = "r(c0).\n";
    for (int i = 0; i + 1 < n; ++i) {
      text += "edge(c" + std::to_string(i) + ", c" + std::to_string(i + 1) +
              ").\n";
    }
    text += "r(Y) :- r(X), edge(X, Y).\n";
    // Uncertain atoms so emission keeps rules/choices (certain-only
    // programs legitimately collapse to facts).
    text += "{ pick(X) } :- r(X).\n";
    text += "used(X) :- pick(X).\n";
    return parse_program(text);
  };
  GroundProgram small = ground(chain(4));
  GroundProgram large = ground(chain(12));
  EXPECT_GT(small.stats.possible_atoms, 0u);
  EXPECT_GT(small.stats.certain_atoms, 0u);
  EXPECT_GT(small.stats.rules + small.stats.choices, 0u);
  EXPECT_GE(small.stats.iterations, 3u);  // semi-naive rounds, not 1 big scan
  EXPECT_GE(small.stats.seconds, 0.0);
  // Larger workload, strictly more work recorded.
  EXPECT_GT(large.stats.possible_atoms, small.stats.possible_atoms);
  EXPECT_GT(large.stats.certain_atoms, small.stats.certain_atoms);
  EXPECT_GT(large.stats.iterations, small.stats.iterations);
  // The reference grounder reports through the same counters.
  GroundProgram ref = ground_reference(chain(4));
  EXPECT_EQ(ref.stats.possible_atoms, small.stats.possible_atoms);
  EXPECT_EQ(ref.stats.certain_atoms, small.stats.certain_atoms);
}

TEST(StatsAudit, SolveCountersNonzeroAndMonotoneOnPigeonhole) {
  auto pigeon = [](int holes) {
    // holes+1 pigeons into `holes` holes: UNSAT, forcing real search.
    std::string text;
    for (int p = 0; p <= holes; ++p) {
      text += "1 { at(p" + std::to_string(p) + ", H) : hole(H) } 1.\n";
    }
    for (int h = 0; h < holes; ++h) {
      text += "hole(h" + std::to_string(h) + ").\n";
    }
    text += ":- at(P1, H), at(P2, H), P1 < P2.\n";
    return parse_program(text);
  };
  SolveResult small = solve_program(pigeon(4));
  SolveResult large = solve_program(pigeon(6));
  EXPECT_FALSE(small.sat);
  EXPECT_FALSE(large.sat);
  EXPECT_GT(small.stats.conflicts, 0u);
  EXPECT_GT(small.stats.decisions, 0u);
  EXPECT_GT(small.stats.propagations, 0u);
  EXPECT_GT(small.stats.sat_vars, 0u);
  EXPECT_GT(small.stats.sat_clauses, 0u);
  EXPECT_GT(large.stats.conflicts, small.stats.conflicts);
  EXPECT_GT(large.stats.propagations, small.stats.propagations);
  // The stats-JSON schema keeps its PR-2 fields on the new pipeline.
  std::string js = small.stats.to_json().dump();
  for (const char* field :
       {"ground_seconds", "translate_seconds", "solve_seconds", "sat_vars",
        "sat_clauses", "conflicts", "decisions", "propagations", "restarts",
        "models_enumerated", "loop_nogoods", "possible_atoms",
        "certain_atoms", "iterations"}) {
    EXPECT_NE(js.find(field), std::string::npos) << field;
  }
}

// The incremental optimizer must keep counters cumulative across priority
// levels: one persistent solver, so the final stats equal the sum of what
// the recorder's event stream saw (nothing is lost between bound-tightening
// re-solves or level transitions).
TEST(StatsAudit, OptimizationCountersCumulativeAcrossLevels) {
  Program p = parse_program(
      "{ a ; b ; c }. :- not a, not b, not c.\n"
      "#minimize { 3@2 : a ; 1@2 : b ; 2@2 : c }.\n"
      "#minimize { 1@1 : a ; 2@1 : b ; 3@1 : c }.\n");
  flight::Recorder& rec = flight::Recorder::global();
  SolveResult r;
  std::uint32_t id = 0;
  {
    flight::RequestScope request("cumulative counters", rec);
    id = request.id();
    r = solve_program(p);
  }
  ASSERT_NE(id, 0u) << "the global recorder is off";
  std::size_t model_events = 0;
  std::vector<std::int64_t> levels_done;
  for (const flight::Event& ev : rec.events()) {
    if (ev.request != id) continue;
    if (ev.kind == flight::EventKind::ModelFound) ++model_events;
    if (ev.kind == flight::EventKind::LevelDone) levels_done.push_back(ev.b);
  }
  ASSERT_TRUE(r.sat);
  // Unique optimum: b alone (1@2, then 2@1).
  std::vector<std::pair<std::int64_t, std::int64_t>> want{{2, 1}, {1, 2}};
  EXPECT_EQ(r.model.costs, want);
  EXPECT_EQ(levels_done, (std::vector<std::int64_t>{2, 1}));
  // Counter == stream: a reset between levels would drop earlier models.
  EXPECT_GE(r.stats.models_enumerated, 1u);
  EXPECT_EQ(r.stats.models_enumerated, model_events);
  EXPECT_GT(r.stats.decisions, 0u);
  VerifyResult v = verify_model(ground(p), r.model);
  EXPECT_TRUE(v.ok) << v.str();
}

}  // namespace
}  // namespace splice::asp
