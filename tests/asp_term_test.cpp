// Unit tests for ASP term interning, matching, and substitution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/asp/term.hpp"

namespace splice::asp {
namespace {

TEST(Term, InterningGivesIdentity) {
  EXPECT_EQ(Term::sym("mpich"), Term::sym("mpich"));
  EXPECT_NE(Term::sym("mpich"), Term::sym("openmpi"));
  EXPECT_EQ(Term::integer(42), Term::integer(42));
  EXPECT_EQ(Term::fun("node", {Term::str("zlib")}),
            Term::fun("node", {Term::str("zlib")}));
  EXPECT_NE(Term::fun("node", {Term::str("zlib")}),
            Term::fun("node", {Term::str("hdf5")}));
}

TEST(Term, SymAndStrAreDistinct) {
  // `mpich` (constant) and "mpich" (string) are different terms, as in clingo.
  EXPECT_NE(Term::sym("mpich"), Term::str("mpich"));
}

TEST(Term, Kinds) {
  EXPECT_EQ(Term::integer(1).kind(), TermKind::Int);
  EXPECT_EQ(Term::sym("a").kind(), TermKind::Sym);
  EXPECT_EQ(Term::str("a").kind(), TermKind::Str);
  EXPECT_EQ(Term::var("X").kind(), TermKind::Var);
  EXPECT_EQ(Term::fun("f", {Term::sym("a")}).kind(), TermKind::Fun);
}

TEST(Term, Groundness) {
  EXPECT_TRUE(Term::sym("a").is_ground());
  EXPECT_FALSE(Term::var("X").is_ground());
  EXPECT_TRUE(Term::fun("f", {Term::sym("a"), Term::integer(1)}).is_ground());
  EXPECT_FALSE(Term::fun("f", {Term::sym("a"), Term::var("X")}).is_ground());
  EXPECT_FALSE(
      Term::fun("f", {Term::fun("g", {Term::var("Y")})}).is_ground());
}

TEST(Term, Signature) {
  EXPECT_EQ(Term::sym("node").signature(), "node/0");
  EXPECT_EQ(Term::fun("attr", {Term::sym("a"), Term::sym("b")}).signature(),
            "attr/2");
}

TEST(Term, StrRepr) {
  Term t = Term::fun("attr", {Term::str("version"),
                              Term::fun("node", {Term::str("example")}),
                              Term::str("1.1.0")});
  EXPECT_EQ(t.str_repr(), "attr(\"version\",node(\"example\"),\"1.1.0\")");
  EXPECT_EQ(Term::integer(-3).str_repr(), "-3");
  EXPECT_EQ(Term::var("Hash").str_repr(), "Hash");
}

TEST(Term, CompareIsTotalOrder) {
  std::vector<Term> terms{
      Term::integer(1),  Term::integer(2),   Term::sym("a"),
      Term::sym("b"),    Term::str("a"),     Term::var("X"),
      Term::fun("f", {Term::sym("a")}),      Term::fun("f", {Term::sym("b")}),
      Term::fun("g", {Term::sym("a")}),
      Term::fun("f", {Term::sym("a"), Term::sym("a")}),
  };
  for (Term a : terms) {
    EXPECT_EQ(Term::compare(a, a), 0);
    for (Term b : terms) {
      EXPECT_EQ(Term::compare(a, b), -Term::compare(b, a));
      for (Term c : terms) {
        // Transitivity of <=.
        if (Term::compare(a, b) <= 0 && Term::compare(b, c) <= 0) {
          EXPECT_LE(Term::compare(a, c), 0);
        }
      }
    }
  }
}

TEST(Term, MatchBindsVariables) {
  Term pattern = Term::fun("depends_on", {Term::var("P"), Term::var("C")});
  Term value = Term::fun("depends_on", {Term::str("hdf5"), Term::str("zlib")});
  Bindings b;
  ASSERT_TRUE(match(pattern, value, b));
  EXPECT_EQ(b.lookup(Term::var("P")), Term::str("hdf5"));
  EXPECT_EQ(b.lookup(Term::var("C")), Term::str("zlib"));
}

TEST(Term, MatchRespectsExistingBindings) {
  Term pattern = Term::fun("edge", {Term::var("X"), Term::var("X")});
  Bindings b;
  EXPECT_TRUE(match(pattern, Term::fun("edge", {Term::sym("a"), Term::sym("a")}), b));
  Bindings b2;
  EXPECT_FALSE(
      match(pattern, Term::fun("edge", {Term::sym("a"), Term::sym("b")}), b2));
}

TEST(Term, MatchNestedFunctions) {
  Term pattern = Term::fun("attr", {Term::str("hash"),
                                    Term::fun("node", {Term::var("Name")}),
                                    Term::var("Hash")});
  Term value = Term::fun("attr", {Term::str("hash"),
                                  Term::fun("node", {Term::str("mpich")}),
                                  Term::str("abcd1234")});
  Bindings b;
  ASSERT_TRUE(match(pattern, value, b));
  EXPECT_EQ(b.lookup(Term::var("Name")), Term::str("mpich"));
  EXPECT_EQ(b.lookup(Term::var("Hash")), Term::str("abcd1234"));
}

TEST(Term, MatchFailsOnDifferentShape) {
  Bindings b;
  EXPECT_FALSE(match(Term::fun("f", {Term::var("X")}), Term::sym("f"), b));
  EXPECT_FALSE(match(Term::sym("a"), Term::sym("b"), b));
  EXPECT_FALSE(match(Term::fun("f", {Term::var("X")}),
                     Term::fun("f", {Term::sym("a"), Term::sym("b")}), b));
}

TEST(Term, SubstituteReplacesBoundVars) {
  Bindings b;
  b.bind(Term::var("X"), Term::str("zlib"));
  Term t = Term::fun("node", {Term::var("X")});
  EXPECT_EQ(substitute(t, b), Term::fun("node", {Term::str("zlib")}));
  // Unbound variables survive.
  Term u = Term::fun("edge", {Term::var("X"), Term::var("Y")});
  Term su = substitute(u, b);
  EXPECT_FALSE(su.is_ground());
  EXPECT_EQ(su.args()[0], Term::str("zlib"));
  EXPECT_EQ(su.args()[1], Term::var("Y"));
}

TEST(Term, BindingsTruncateBacktracks) {
  Bindings b;
  b.bind(Term::var("X"), Term::sym("a"));
  std::size_t mark = b.size();
  b.bind(Term::var("Y"), Term::sym("b"));
  b.truncate(mark);
  EXPECT_FALSE(b.lookup(Term::var("Y")).valid());
  EXPECT_TRUE(b.lookup(Term::var("X")).valid());
}

TEST(Term, CollectVarsFirstOccurrenceOrder) {
  Term t = Term::fun("f", {Term::var("B"), Term::fun("g", {Term::var("A")}),
                           Term::var("B")});
  std::vector<Term> vars;
  collect_vars(t, vars);
  ASSERT_EQ(vars.size(), 2u);
  EXPECT_EQ(vars[0], Term::var("B"));
  EXPECT_EQ(vars[1], Term::var("A"));
}

TEST(TermInterner, EdgeKeysStayDistinct) {
  // Same spelling, different kind: distinct terms.
  EXPECT_NE(Term::sym("a"), Term::str("a"));
  EXPECT_NE(Term::sym("X"), Term::var("X"));
  EXPECT_NE(Term::str("X"), Term::var("X"));
  // A 0-arity Fun is not the Sym of the same name.
  Term f0 = Term::fun("a", std::span<const Term>());
  EXPECT_EQ(f0.kind(), TermKind::Fun);
  EXPECT_NE(f0, Term::sym("a"));
  EXPECT_EQ(f0, Term::fun("a", std::span<const Term>()));
  EXPECT_NE(f0.sig(), Term::fun("a", {Term::sym("a")}).sig());
  // Negative and extreme integers.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::vector<Term> ints;
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
                         std::int64_t{2}, std::int64_t{-2}, kMin, kMax}) {
    ints.push_back(Term::integer(v));
    EXPECT_EQ(Term::integer(v), ints.back());
    EXPECT_EQ(Term::integer(v).int_value(), v);
  }
  for (std::size_t i = 0; i < ints.size(); ++i) {
    for (std::size_t j = i + 1; j < ints.size(); ++j) {
      EXPECT_NE(ints[i], ints[j]);
    }
  }
  // The integer 0 is not the empty Sym, though both carry the empty name.
  EXPECT_NE(Term::integer(0), Term::sym(""));
  // Argument order and arity are part of the key.
  Term a = Term::sym("a");
  Term b = Term::sym("b");
  EXPECT_NE(Term::fun("f", {a, b}), Term::fun("f", {b, a}));
  EXPECT_NE(Term::fun("f", {a}), Term::fun("f", {a, a}));
}

TEST(TermInterner, IdsDenseAndStableAcrossGrowth) {
  std::size_t before = Term::interned_count();
  std::vector<Term> first;
  for (int i = 0; i < 64; ++i) {
    first.push_back(Term::sym("dense_" + std::to_string(i)));
    // A new atomic term takes the next id.
    EXPECT_EQ(first.back().id(), before + static_cast<std::size_t>(i));
  }
  EXPECT_EQ(Term::interned_count(), before + first.size());
  // Grow the index several times over.
  std::size_t target = 8 * std::max<std::size_t>(before, 1024);
  std::vector<Term> more;
  for (std::size_t i = 0; i < target; ++i) {
    more.push_back(Term::fun("dense_f", {Term::integer(static_cast<std::int64_t>(i)),
                                         first[i % first.size()]}));
  }
  for (int i = 0; i < 64; ++i) {
    Term again = Term::sym("dense_" + std::to_string(i));
    EXPECT_EQ(again, first[static_cast<std::size_t>(i)]);
    EXPECT_EQ(again.name(), "dense_" + std::to_string(i));
  }
  for (std::size_t i = 0; i < more.size(); ++i) {
    Term args[] = {Term::integer(static_cast<std::int64_t>(i)),
                   first[i % first.size()]};
    Term again = Term::fun_like(more[i], args);
    ASSERT_EQ(again, more[i]);
  }
}

TEST(TermInterner, ConcurrentInternAgreesOnIds) {
  // Four threads intern overlapping subsets of Int, Sym, Str and Fun keys,
  // each in its own order, enough to grow both indexes at least three
  // times.  Every key must map to one id in every thread, and the count
  // must grow by exactly the number of distinct new terms.
  std::size_t before = Term::interned_count();
  const std::size_t keys = 8 * std::max<std::size_t>(before, 1024);
  constexpr std::int64_t kIntBase = 7'000'000'000'000LL;
  auto make = [&](std::size_t i) -> Term {
    auto n = static_cast<std::int64_t>(i);
    switch (i % 4) {
      case 0: return Term::integer(kIntBase + n);
      case 1: return Term::sym("conc_" + std::to_string(i));
      case 2: return Term::str("conc_" + std::to_string(i - 1));
      default:  // fresh Int subterm + the Sym key of i - 2
        return Term::fun("conc_f", {Term::integer(-kIntBase - n),
                                    Term::sym("conc_" + std::to_string(i - 2))});
    }
  };
  constexpr int kThreads = 4;
  std::vector<std::vector<std::uint32_t>> ids(
      kThreads, std::vector<std::uint32_t>(keys, 0xffffffffu));
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<std::size_t> order;
      for (std::size_t i = 0; i < keys; ++i) {
        if ((i + static_cast<std::size_t>(t)) % kThreads != 0) order.push_back(i);
      }
      std::mt19937 rng(static_cast<std::uint32_t>(t) + 1);
      std::shuffle(order.begin(), order.end(), rng);
      for (std::size_t i : order) {
        Term term = make(i);
        ids[static_cast<std::size_t>(t)][i] = term.id();
        // Reading the term back is lock-free and must see its data.
        if (term.kind() == TermKind::Fun && term.args().size() != 2) {
          ADD_FAILURE() << "bad arity for key " << i;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  for (std::size_t i = 0; i < keys; ++i) {
    std::uint32_t id = make(i).id();
    for (int t = 0; t < kThreads; ++t) {
      std::uint32_t got = ids[static_cast<std::size_t>(t)][i];
      if (got != 0xffffffffu) {
        ASSERT_EQ(got, id) << "key " << i << " thread " << t;
      }
    }
  }
  // Distinct terms: one per key, plus each Fun key's fresh Int subterm.
  std::size_t distinct = keys + keys / 4;
  EXPECT_EQ(Term::interned_count(), before + distinct);
}

}  // namespace
}  // namespace splice::asp
