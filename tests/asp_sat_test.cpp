// Unit tests for the CDCL core and PB propagators, used directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "src/asp/sat.hpp"

namespace splice::asp::sat {
namespace {

using R = Solver::Result;

TEST(Sat, TrivialSat) {
  Solver s;
  Var a = s.new_var();
  Var b = s.new_var();
  s.add_clause({mk_lit(a, true), mk_lit(b, true)});
  EXPECT_EQ(s.solve(), R::Sat);
  EXPECT_TRUE(s.model_value(a) || s.model_value(b));
}

TEST(Sat, TrivialUnsat) {
  Solver s;
  Var a = s.new_var();
  s.add_clause({mk_lit(a, true)});
  EXPECT_FALSE(s.add_clause({mk_lit(a, false)}));
  EXPECT_EQ(s.solve(), R::Unsat);
}

TEST(Sat, UnitPropagationChain) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 20; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < 20; ++i) {
    s.add_clause({mk_lit(v[i], false), mk_lit(v[i + 1], true)});  // v_i -> v_i+1
  }
  s.add_clause({mk_lit(v[0], true)});
  EXPECT_EQ(s.solve(), R::Sat);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(s.model_value(v[i])) << i;
}

TEST(Sat, RequiresConflictAnalysis) {
  // (a|b) & (a|!b) & (!a|c) & (!a|!c) is UNSAT.
  Solver s;
  Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  s.add_clause({mk_lit(a, true), mk_lit(b, true)});
  s.add_clause({mk_lit(a, true), mk_lit(b, false)});
  s.add_clause({mk_lit(a, false), mk_lit(c, true)});
  s.add_clause({mk_lit(a, false), mk_lit(c, false)});
  EXPECT_EQ(s.solve(), R::Unsat);
}

TEST(Sat, PigeonholeUnsat) {
  // 5 pigeons, 4 holes: classic hard-ish UNSAT exercising learning/restarts.
  const int P = 5, H = 4;
  Solver s;
  std::vector<std::vector<Var>> x(P, std::vector<Var>(H));
  for (int p = 0; p < P; ++p) {
    for (int h = 0; h < H; ++h) x[p][h] = s.new_var();
  }
  for (int p = 0; p < P; ++p) {
    std::vector<Lit> at_least;
    for (int h = 0; h < H; ++h) at_least.push_back(mk_lit(x[p][h], true));
    s.add_clause(at_least);
  }
  for (int h = 0; h < H; ++h) {
    for (int p1 = 0; p1 < P; ++p1) {
      for (int p2 = p1 + 1; p2 < P; ++p2) {
        s.add_clause({mk_lit(x[p1][h], false), mk_lit(x[p2][h], false)});
      }
    }
  }
  EXPECT_EQ(s.solve(), R::Unsat);
  EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(Sat, GraphColoringSat) {
  // 3-color a cycle of length 6 (bipartite-ish, easily colorable).
  const int N = 6, C = 3;
  Solver s;
  std::vector<std::vector<Var>> col(N, std::vector<Var>(C));
  for (auto& row : col) {
    for (Var& v : row) v = s.new_var();
  }
  for (int n = 0; n < N; ++n) {
    std::vector<Lit> one;
    for (int c = 0; c < C; ++c) one.push_back(mk_lit(col[n][c], true));
    s.add_clause(one);
    for (int c1 = 0; c1 < C; ++c1) {
      for (int c2 = c1 + 1; c2 < C; ++c2) {
        s.add_clause({mk_lit(col[n][c1], false), mk_lit(col[n][c2], false)});
      }
    }
  }
  for (int n = 0; n < N; ++n) {
    int m = (n + 1) % N;
    for (int c = 0; c < C; ++c) {
      s.add_clause({mk_lit(col[n][c], false), mk_lit(col[m][c], false)});
    }
  }
  ASSERT_EQ(s.solve(), R::Sat);
  for (int n = 0; n < N; ++n) {
    int count = 0;
    for (int c = 0; c < C; ++c) count += s.model_value(col[n][c]);
    EXPECT_EQ(count, 1);
    for (int c = 0; c < C; ++c) {
      EXPECT_FALSE(s.model_value(col[n][c]) && s.model_value(col[(n + 1) % N][c]));
    }
  }
}

TEST(Sat, PbAtMostOne) {
  Solver s;
  std::vector<Var> v;
  std::vector<std::pair<Lit, std::int64_t>> terms;
  for (int i = 0; i < 10; ++i) {
    v.push_back(s.new_var());
    terms.emplace_back(mk_lit(v.back(), true), 1);
  }
  ASSERT_TRUE(s.add_pb_le(terms, 1));
  // Force two of them true -> UNSAT.
  s.add_clause({mk_lit(v[2], true)});
  s.add_clause({mk_lit(v[7], true)});
  EXPECT_EQ(s.solve(), R::Unsat);
}

TEST(Sat, PbAtMostOnePropagates) {
  Solver s;
  Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  s.add_pb_le({{mk_lit(a, true), 1}, {mk_lit(b, true), 1}, {mk_lit(c, true), 1}}, 1);
  s.add_clause({mk_lit(b, true)});
  ASSERT_EQ(s.solve(), R::Sat);
  EXPECT_TRUE(s.model_value(b));
  EXPECT_FALSE(s.model_value(a));
  EXPECT_FALSE(s.model_value(c));
}

TEST(Sat, PbWeighted) {
  // 3a + 2b + 2c <= 4: at most (a and one of b,c) or (b and c).
  Solver s;
  Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  s.add_pb_le({{mk_lit(a, true), 3}, {mk_lit(b, true), 2}, {mk_lit(c, true), 2}}, 4);
  s.add_clause({mk_lit(a, true)});
  s.add_clause({mk_lit(b, true)});
  // a+b = 5 > 4.
  EXPECT_EQ(s.solve(), R::Unsat);
}

TEST(Sat, PbWeightedPropagation) {
  Solver s;
  Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  s.add_pb_le({{mk_lit(a, true), 3}, {mk_lit(b, true), 2}, {mk_lit(c, true), 2}}, 4);
  s.add_clause({mk_lit(b, true)});
  s.add_clause({mk_lit(c, true)});
  ASSERT_EQ(s.solve(), R::Sat);
  EXPECT_FALSE(s.model_value(a));  // 2+2=4; a (3 more) must be false
}

TEST(Sat, PbOverWideSet) {
  // sum of 100 unit terms <= 10; force 10 true, then the rest must be false.
  Solver s;
  std::vector<Var> v;
  std::vector<std::pair<Lit, std::int64_t>> terms;
  for (int i = 0; i < 100; ++i) {
    v.push_back(s.new_var());
    terms.emplace_back(mk_lit(v.back(), true), 1);
  }
  s.add_pb_le(terms, 10);
  for (int i = 0; i < 10; ++i) s.add_clause({mk_lit(v[i], true)});
  ASSERT_EQ(s.solve(), R::Sat);
  for (int i = 10; i < 100; ++i) EXPECT_FALSE(s.model_value(v[i]));
}

TEST(Sat, PbBoundZeroForcesAllFalse) {
  Solver s;
  Var a = s.new_var(), b = s.new_var();
  ASSERT_TRUE(s.add_pb_le({{mk_lit(a, true), 1}, {mk_lit(b, true), 1}}, 0));
  ASSERT_EQ(s.solve(), R::Sat);
  EXPECT_FALSE(s.model_value(a));
  EXPECT_FALSE(s.model_value(b));
}

TEST(Sat, IncrementalAddAfterSolve) {
  Solver s;
  Var a = s.new_var(), b = s.new_var();
  s.add_clause({mk_lit(a, true), mk_lit(b, true)});
  ASSERT_EQ(s.solve(), R::Sat);
  // Block the found model, re-solve until UNSAT; exactly 3 models exist.
  int models = 1;
  for (;; ++models) {
    std::vector<Lit> block;
    block.push_back(mk_lit(a, !s.model_value(a)));
    block.push_back(mk_lit(b, !s.model_value(b)));
    if (!s.add_clause(block) || s.solve() == R::Unsat) break;
  }
  EXPECT_EQ(models, 3);
}

TEST(Sat, PbConflictDrivesLearning) {
  // Random-ish layered instance where PB interacts with clauses.
  Solver s;
  const int N = 30;
  std::vector<Var> v;
  std::vector<std::pair<Lit, std::int64_t>> terms;
  for (int i = 0; i < N; ++i) {
    v.push_back(s.new_var());
    terms.emplace_back(mk_lit(v.back(), true), 1 + (i % 3));
  }
  s.add_pb_le(terms, 7);
  // Chains forcing groups on together.
  for (int i = 0; i + 1 < N; i += 2) {
    s.add_clause({mk_lit(v[i], false), mk_lit(v[i + 1], true)});
  }
  s.add_clause({mk_lit(v[0], true), mk_lit(v[4], true), mk_lit(v[8], true)});
  EXPECT_EQ(s.solve(), R::Sat);
  // Verify the PB constraint holds in the model.
  std::int64_t sum = 0;
  for (int i = 0; i < N; ++i) {
    if (s.model_value(v[i])) sum += 1 + (i % 3);
  }
  EXPECT_LE(sum, 7);
}

// ---- assumptions, failed-assumption cores, core minimization ---------------

TEST(SatAssumptions, FinalCoreIsUnsatAlone) {
  // a -> x, b -> !x: assuming both is Unsat; each alone is Sat.
  Solver s;
  Var a = s.new_var(), b = s.new_var(), x = s.new_var();
  s.add_clause({mk_lit(a, false), mk_lit(x, true)});
  s.add_clause({mk_lit(b, false), mk_lit(x, false)});
  EXPECT_EQ(s.solve({mk_lit(a, true), mk_lit(b, true)}), R::Unsat);
  EXPECT_FALSE(s.in_conflict());
  std::vector<Lit> core = s.final_core();
  ASSERT_FALSE(core.empty());
  // The core, re-solved as the only assumptions, must still be Unsat.
  EXPECT_EQ(s.solve(core), R::Unsat);
  EXPECT_FALSE(s.in_conflict());
  // Either assumption alone is satisfiable.
  EXPECT_EQ(s.solve({mk_lit(a, true)}), R::Sat);
  EXPECT_EQ(s.solve({mk_lit(b, true)}), R::Sat);
}

TEST(SatAssumptions, SolverReusableAfterAssumptionUnsat) {
  // The reusability contract: an assumption-failure Unsat must not latch
  // in_conflict() or leave trail state behind — later solves under different
  // assumptions (and with no assumptions) see the same database.
  Solver s;
  Var a = s.new_var(), b = s.new_var(), x = s.new_var();
  s.add_clause({mk_lit(a, false), mk_lit(x, true)});
  s.add_clause({mk_lit(b, false), mk_lit(x, false)});
  Lit la = mk_lit(a, true), lb = mk_lit(b, true);

  EXPECT_EQ(s.solve({la, lb}), R::Unsat);
  EXPECT_FALSE(s.in_conflict());
  EXPECT_EQ(s.solve({la}), R::Sat);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_EQ(s.solve({lb}), R::Sat);
  EXPECT_TRUE(s.model_value(b));
  // The same failure is reproducible — nothing was consumed.
  EXPECT_EQ(s.solve({la, lb}), R::Unsat);
  EXPECT_FALSE(s.in_conflict());

  // Retire assumption `a` by committing its negation as a unit clause.
  EXPECT_TRUE(s.add_clause({mk_lit(a, false)}));
  EXPECT_EQ(s.solve({lb}), R::Sat);
  // Assuming the retired literal now fails at level 0: core is {a} alone.
  EXPECT_EQ(s.solve({la}), R::Unsat);
  EXPECT_FALSE(s.in_conflict());
  ASSERT_EQ(s.final_core().size(), 1u);
  EXPECT_EQ(s.final_core()[0], la);
  EXPECT_EQ(s.solve(), R::Sat);
}

TEST(SatAssumptions, FinalCoreThroughPbPropagation) {
  // PB constraint a + b <= 1 with both assumed: the failed-assumption
  // analysis must traverse the PB-derived reason clauses.
  Solver s;
  Var a = s.new_var(), b = s.new_var();
  s.add_pb_le({{mk_lit(a, true), 1}, {mk_lit(b, true), 1}}, 1);
  EXPECT_EQ(s.solve({mk_lit(a, true), mk_lit(b, true)}), R::Unsat);
  EXPECT_FALSE(s.in_conflict());
  std::vector<Lit> core = s.final_core();
  EXPECT_EQ(s.solve(core), R::Unsat);
  EXPECT_EQ(s.solve({mk_lit(a, true)}), R::Sat);
  EXPECT_EQ(s.solve({mk_lit(b, true)}), R::Sat);
}

TEST(SatAssumptions, FinalCoreThroughLazyPbReason) {
  // x -> a (clause); 2a + 2v + c <= 3 (PB); !v -> c (clause).  Assuming x
  // makes a true, the PB forces !v with a lazily explained reason, and the
  // clause then makes c true, a PB term set *after* !v on the trail.
  // Assuming !c fails; analyze_final must explain !v by {a} alone (c came
  // later) and trace a back to x.  The bystander assumption y stays out.
  Solver s;
  Var x = s.new_var(), a = s.new_var(), v = s.new_var(), c = s.new_var(),
      y = s.new_var();
  s.add_clause({mk_lit(x, false), mk_lit(a, true)});
  s.add_clause({mk_lit(v, true), mk_lit(c, true)});
  s.add_pb_le({{mk_lit(a, true), 2}, {mk_lit(v, true), 2}, {mk_lit(c, true), 1}},
              3);
  std::uint64_t learned = s.stats().learned;
  EXPECT_EQ(s.solve({mk_lit(y, true), mk_lit(x, true), mk_lit(c, false)}),
            R::Unsat);
  EXPECT_FALSE(s.in_conflict());
  std::vector<Lit> core = s.final_core();
  std::sort(core.begin(), core.end());
  std::vector<Lit> want = {mk_lit(x, true), mk_lit(c, false)};
  std::sort(want.begin(), want.end());
  EXPECT_EQ(core, want);
  // Explaining a PB propagation is not learning.
  EXPECT_EQ(s.stats().learned, learned);
  EXPECT_EQ(s.solve(core), R::Unsat);
  EXPECT_EQ(s.solve({mk_lit(x, true)}), R::Sat);
  EXPECT_TRUE(s.model_value(c));
  EXPECT_FALSE(s.model_value(v));
  EXPECT_EQ(s.solve(), R::Sat);
}

// ---- brute-force oracle over random clause + PB instances -------------------

struct RandomInstance {
  int vars = 0;
  std::vector<std::vector<Lit>> clauses;
  std::vector<std::pair<std::vector<std::pair<Lit, std::int64_t>>, std::int64_t>>
      pbs;

  static bool lit_true(Lit l, std::uint32_t m) {
    return (((m >> var_of(l)) & 1u) != 0) == is_pos(l);
  }
  bool satisfied(std::uint32_t m) const {
    for (const auto& c : clauses) {
      if (std::none_of(c.begin(), c.end(),
                       [&](Lit l) { return lit_true(l, m); })) {
        return false;
      }
    }
    for (const auto& [terms, bound] : pbs) {
      std::int64_t sum = 0;
      for (auto [l, w] : terms) sum += lit_true(l, m) ? w : 0;
      if (sum > bound) return false;
    }
    return true;
  }
  /// Some model extends `assumed`.
  bool sat_under(const std::vector<Lit>& assumed) const {
    for (std::uint32_t m = 0; m < (1u << vars); ++m) {
      if (std::all_of(assumed.begin(), assumed.end(),
                      [&](Lit l) { return lit_true(l, m); }) &&
          satisfied(m)) {
        return true;
      }
    }
    return false;
  }
};

RandomInstance random_instance(std::mt19937& rng) {
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  RandomInstance inst;
  inst.vars = pick(3, 14);
  auto random_vars = [&](int k) {
    std::vector<Var> all(static_cast<std::size_t>(inst.vars));
    std::iota(all.begin(), all.end(), Var{0});
    std::shuffle(all.begin(), all.end(), rng);
    all.resize(static_cast<std::size_t>(std::min(k, inst.vars)));
    return all;
  };
  int nclauses = pick(0, 3 * inst.vars);
  for (int i = 0; i < nclauses; ++i) {
    std::vector<Lit> c;
    for (Var v : random_vars(pick(1, 4))) c.push_back(mk_lit(v, pick(0, 1) == 1));
    inst.clauses.push_back(std::move(c));
  }
  int npbs = pick(1, 4);
  for (int i = 0; i < npbs; ++i) {
    std::vector<std::pair<Lit, std::int64_t>> terms;
    std::int64_t total = 0;
    for (Var v : random_vars(pick(2, inst.vars))) {
      std::int64_t w = pick(1, 4);
      terms.emplace_back(mk_lit(v, pick(0, 2) != 0), w);
      total += w;
    }
    inst.pbs.emplace_back(std::move(terms),
                          std::uniform_int_distribution<std::int64_t>(0, total)(rng));
  }
  return inst;
}

TEST(SatOracle, RandomClausePbInstancesMatchBruteForce) {
  std::mt19937 rng(20261017);
  int sat_plain = 0, unsat_assumed = 0;
  for (int round = 0; round < 240; ++round) {
    RandomInstance inst = random_instance(rng);
    Solver s;
    for (int v = 0; v < inst.vars; ++v) s.new_var();
    for (const auto& c : inst.clauses) s.add_clause(c);
    for (const auto& [terms, bound] : inst.pbs) s.add_pb_le(terms, bound);
    auto check_model = [&](const std::vector<Lit>& assumed) {
      std::uint32_t m = 0;
      for (int v = 0; v < inst.vars; ++v) {
        if (s.model_value(static_cast<Var>(v))) m |= 1u << v;
      }
      EXPECT_TRUE(inst.satisfied(m)) << "round " << round;
      for (Lit l : assumed) {
        EXPECT_TRUE(RandomInstance::lit_true(l, m)) << "round " << round;
      }
    };

    bool sat = inst.sat_under({});
    ASSERT_EQ(s.solve() == R::Sat, sat) << "round " << round;
    if (sat) {
      ++sat_plain;
      check_model({});
    }
    for (int probe = 0; probe < 6; ++probe) {
      std::vector<Lit> assumed;
      int k = std::uniform_int_distribution<int>(1, inst.vars)(rng);
      std::vector<Var> vs(static_cast<std::size_t>(inst.vars));
      std::iota(vs.begin(), vs.end(), Var{0});
      std::shuffle(vs.begin(), vs.end(), rng);
      for (int i = 0; i < k; ++i) {
        assumed.push_back(mk_lit(vs[static_cast<std::size_t>(i)], rng() % 2 == 0));
      }
      bool want = inst.sat_under(assumed);
      R got = s.solve(assumed);
      ASSERT_EQ(got == R::Sat, want) << "round " << round << " probe " << probe;
      if (got == R::Sat) {
        check_model(assumed);
        continue;
      }
      ++unsat_assumed;
      std::vector<Lit> core = s.final_core();
      for (Lit l : core) {
        EXPECT_NE(std::find(assumed.begin(), assumed.end(), l), assumed.end())
            << "round " << round << ": core literal not assumed";
      }
      EXPECT_FALSE(inst.sat_under(core)) << "round " << round << ": core is Sat";
    }
  }
  // The generator must exercise both outcomes.
  EXPECT_GT(sat_plain, 60);
  EXPECT_GT(unsat_assumed, 60);
}

TEST(SatAssumptions, MinimizeCoreSubsetMinimal) {
  // Six assumptions; only {a2, a4} genuinely conflict (a2 -> y, a4 -> !y).
  // Deletion minimization must strip the four bystanders, and the result
  // must be subset-minimal: every proper subset is satisfiable.
  Solver s;
  std::vector<Lit> assumptions;
  std::vector<Var> vars;
  for (int i = 0; i < 6; ++i) {
    vars.push_back(s.new_var());
    assumptions.push_back(mk_lit(vars.back(), true));
  }
  Var y = s.new_var();
  s.add_clause({mk_lit(vars[2], false), mk_lit(y, true)});
  s.add_clause({mk_lit(vars[4], false), mk_lit(y, false)});
  ASSERT_EQ(s.solve(assumptions), R::Unsat);

  std::uint64_t solves = 0;
  std::vector<Lit> core = minimize_core(s, s.final_core(), 0, &solves);
  ASSERT_EQ(core.size(), 2u);
  EXPECT_GT(solves, 0u);
  EXPECT_EQ(s.solve(core), R::Unsat);
  // Subset-minimality by brute force: every proper subset must be Sat.
  for (std::size_t drop = 0; drop < core.size(); ++drop) {
    std::vector<Lit> sub = core;
    sub.erase(sub.begin() + static_cast<std::ptrdiff_t>(drop));
    EXPECT_EQ(s.solve(sub), R::Sat) << "dropping core[" << drop << "]";
  }
}

TEST(SatAssumptions, MinimizeCoreRespectsSolveCap) {
  Solver s;
  Var a = s.new_var(), b = s.new_var(), c = s.new_var(), y = s.new_var();
  s.add_clause({mk_lit(a, false), mk_lit(y, true)});
  s.add_clause({mk_lit(b, false), mk_lit(y, false)});
  ASSERT_EQ(s.solve({mk_lit(c, true), mk_lit(a, true), mk_lit(b, true)}),
            R::Unsat);
  std::uint64_t solves = 0;
  minimize_core(s, s.final_core(), 1, &solves);
  EXPECT_LE(solves, 1u);
}

}  // namespace
}  // namespace splice::asp::sat
