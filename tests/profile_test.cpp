// Solver cost profiler tests (DESIGN.md §14): per-origin SAT accounting,
// per-rule grounding accounting, directive aggregation, and — most
// importantly — the conservation invariants: profiling must partition the
// solver's existing totals, never invent or drop cost.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/asp/asp.hpp"
#include "src/concretize/concretizer.hpp"
#include "src/support/flight.hpp"
#include "src/support/trace.hpp"
#include "src/workload/caches.hpp"
#include "src/workload/radiuss.hpp"

namespace splice::asp {
namespace {

Program pigeonhole(int holes) {
  std::string text;
  for (int p = 0; p <= holes; ++p) {
    text += "1 { at(p" + std::to_string(p) + ", H) : hole(H) } 1.\n";
  }
  for (int h = 0; h < holes; ++h) {
    text += "hole(h" + std::to_string(h) + ").\n";
  }
  text += ":- at(P1, H), at(P2, H), P1 < P2.\n";
  return parse_program(text);
}

SolveResult profiled_solve(const Program& p) {
  GroundOptions gopts;
  gopts.record_provenance = true;
  gopts.profile = true;
  GroundProgram gp = ground(p, gopts);
  SolveOptions sopts;
  sopts.profile = true;
  return solve_ground(gp, sopts);
}

/// The core invariants: per-origin sums equal the solver's own totals, and
/// per-rule emission sums equal the grounder's totals.
void check_conservation(const ProfileData& pd) {
  std::uint64_t props = pd.sat.unattributed.propagations;
  std::uint64_t confls = pd.sat.unattributed.conflicts;
  std::uint64_t learned = 0;
  for (const auto& c : pd.sat.per_origin) {
    props += c.propagations;
    confls += c.conflicts;
    learned += c.learned;
  }
  EXPECT_EQ(props, pd.sat_stats.propagations);
  EXPECT_EQ(confls, pd.sat_stats.conflicts);
  // Every learned clause either has an explicit empty-ancestry bucket or
  // credited >= 1 origin on its 1UIP resolution chain.
  EXPECT_LE(pd.sat.learned_without_origin, pd.sat.learned_total);
  EXPECT_GE(learned, pd.sat.learned_total - pd.sat.learned_without_origin);
  if (pd.ground != nullptr) {
    std::uint64_t rules = 0;
    std::uint64_t choices = 0;
    for (const auto& rc : pd.ground->per_rule) {
      rules += rc.emitted_rules;
      choices += rc.emitted_choices;
    }
    EXPECT_EQ(rules, pd.ground_stats.rules);
    EXPECT_EQ(choices, pd.ground_stats.choices);
  }
}

/// Aggregation conservation: directives + buckets partition the SAT totals
/// (encoding-internal is the rollup of the predicate table, unattributed is
/// its own bucket), so the report never silently drops cost.
void check_aggregate_conservation(const Profile& prof) {
  std::uint64_t props = 0;
  std::uint64_t confls = 0;
  for (const Profile::Row& r : prof.directives) {
    props += r.sat.propagations;
    confls += r.sat.conflicts;
  }
  for (const Profile::Row& r : prof.buckets) {
    props += r.sat.propagations;
    confls += r.sat.conflicts;
  }
  EXPECT_EQ(props, prof.sat_totals.propagations);
  EXPECT_EQ(confls, prof.sat_totals.conflicts);
}

// ---- opt-in ----------------------------------------------------------------

TEST(ProfileOptIn, DisabledByDefaultEverywhere) {
  Program p = pigeonhole(3);
  GroundProgram gp = ground(p);
  EXPECT_EQ(gp.profile, nullptr);
  SolveResult r = solve_ground(gp);
  EXPECT_EQ(r.profile, nullptr);

  sat::Solver s;
  EXPECT_EQ(s.profile(), nullptr);
}

TEST(ProfileOptIn, EnabledCapturesAllThreeLayers) {
  SolveResult r = profiled_solve(pigeonhole(4));
  EXPECT_FALSE(r.sat);
  ASSERT_NE(r.profile, nullptr);
  EXPECT_NE(r.profile->ground, nullptr);
  EXPECT_NE(r.profile->provenance, nullptr);
  EXPECT_FALSE(r.profile->origins.entries.empty());
  EXPECT_FALSE(r.profile->atom_terms.empty());
  EXPECT_GT(r.profile->sat_stats.conflicts, 0u);
}

// ---- SAT layer -------------------------------------------------------------

TEST(SatProfile, PerOriginCountsConserveTotals) {
  SolveResult r = profiled_solve(pigeonhole(5));
  ASSERT_NE(r.profile, nullptr);
  check_conservation(*r.profile);
  // Real search happened, and some of it is attributed to tagged clauses.
  std::uint64_t attributed = 0;
  for (const auto& c : r.profile->sat.per_origin) {
    attributed += c.propagations + c.conflicts + c.participations;
  }
  EXPECT_GT(attributed, 0u);
  EXPECT_GT(r.profile->sat.learned_total, 0u);
}

TEST(SatProfile, DirectSolverTagging) {
  // An UNSAT 2-SAT square over {a, b} with the four clauses split across
  // two origins: any search path must propagate through and conflict on
  // tagged clauses (no unit enqueues at add time, so nothing simplifies
  // away at level 0).
  sat::Solver s;
  s.enable_profiling(true);
  sat::Var a = s.new_var();
  sat::Var b = s.new_var();
  s.add_clause({sat::mk_lit(a, false), sat::mk_lit(b, true)}, /*origin=*/0);
  s.add_clause({sat::mk_lit(a, true), sat::mk_lit(b, true)}, 0);
  s.add_clause({sat::mk_lit(a, false), sat::mk_lit(b, false)}, 1);
  s.add_clause({sat::mk_lit(a, true), sat::mk_lit(b, false)}, 1);
  ASSERT_EQ(s.solve(), sat::Solver::Result::Unsat);
  ASSERT_NE(s.profile(), nullptr);
  const sat::SatProfile& prof = *s.profile();
  ASSERT_FALSE(prof.per_origin.empty());
  std::uint64_t props = prof.unattributed.propagations;
  std::uint64_t confls = prof.unattributed.conflicts;
  std::uint64_t tagged = 0;
  for (const auto& c : prof.per_origin) {
    props += c.propagations;
    confls += c.conflicts;
    tagged += c.propagations + c.conflicts + c.participations;
  }
  EXPECT_EQ(props, s.stats().propagations);
  EXPECT_EQ(confls, s.stats().conflicts);
  EXPECT_GT(tagged, 0u);
  EXPECT_GT(s.stats().conflicts, 0u);
}

// ---- ground layer ----------------------------------------------------------

TEST(GroundProfile, PerRuleCountsMatchEmission) {
  Program p = parse_program(
      "r(c0).\n"
      "edge(c0, c1). edge(c1, c2). edge(c2, c3).\n"
      "r(Y) :- r(X), edge(X, Y).\n"
      "{ pick(X) } :- r(X).\n"
      "used(X) :- pick(X).\n");
  GroundOptions gopts;
  gopts.profile = true;
  GroundProgram gp = ground(p, gopts);
  ASSERT_NE(gp.profile, nullptr);
  const GroundProfile& gprof = *gp.profile;
  ASSERT_EQ(gprof.per_rule.size(), p.rules().size());
  std::uint64_t rules = 0;
  std::uint64_t choices = 0;
  std::uint64_t instantiations = 0;
  double seconds = 0;
  for (const auto& rc : gprof.per_rule) {
    rules += rc.emitted_rules;
    choices += rc.emitted_choices;
    instantiations += rc.instantiations;
    seconds += rc.seconds;
  }
  EXPECT_EQ(rules, gp.stats.rules);
  EXPECT_EQ(choices, gp.stats.choices);
  EXPECT_GT(instantiations, 0u);
  EXPECT_GE(seconds, 0.0);
  // The recursive rule instantiates once per derived edge step; the chain
  // has three edges, so at least three instantiations (plus seeds).
  bool some_rule_worked = false;
  for (const auto& rc : gprof.per_rule) {
    if (rc.instantiations >= 3) some_rule_worked = true;
  }
  EXPECT_TRUE(some_rule_worked);
}

TEST(GroundProfile, ProfileOffCostsNothingStructural) {
  Program p = pigeonhole(3);
  GroundProgram off = ground(p);
  GroundOptions gopts;
  gopts.profile = true;
  GroundProgram on = ground(p, gopts);
  // Same program out, same counters; profiling only adds the side table.
  EXPECT_EQ(off.stats.rules, on.stats.rules);
  EXPECT_EQ(off.stats.choices, on.stats.choices);
  EXPECT_EQ(off.stats.possible_atoms, on.stats.possible_atoms);
}

// ---- aggregation -----------------------------------------------------------

TEST(ProfileAggregate, NotesBecomeDirectiveRows) {
  // Two noted constraints fight over {a;b}; the notes must surface as
  // directive rows, unnoted rules in the predicate/bucket tables.
  Program p;
  {
    Program parsed = parse_program(
        "{ a ; b }.\n"
        ":- not a, not b.\n"
        ":- a, b.\n"
        "c :- a.\n");
    for (std::size_t i = 0; i < parsed.rules().size(); ++i) {
      Rule r = parsed.rules()[i];
      if (i == 1) r.note = "directive: at least one";
      if (i == 2) r.note = "directive: not both";
      p.add_rule(std::move(r));
    }
  }
  GroundOptions gopts;
  gopts.record_provenance = true;
  gopts.profile = true;
  GroundProgram gp = ground(p, gopts);
  SolveOptions sopts;
  sopts.profile = true;
  SolveResult r = solve_ground(gp, sopts);
  ASSERT_TRUE(r.sat);
  ASSERT_NE(r.profile, nullptr);
  check_conservation(*r.profile);

  Profile prof = aggregate_profile(*r.profile, p);
  check_aggregate_conservation(prof);
  std::vector<std::string> names;
  for (const Profile::Row& row : prof.directives) names.push_back(row.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "directive: at least one"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "directive: not both"),
            names.end());
  // Named buckets always present, encoding-internal first.
  ASSERT_FALSE(prof.buckets.empty());
  EXPECT_EQ(prof.buckets.front().name, "encoding-internal");
  bool has_unattributed = false;
  for (const Profile::Row& row : prof.buckets) {
    if (row.name == "unattributed") has_unattributed = true;
  }
  EXPECT_TRUE(has_unattributed);
}

TEST(ProfileAggregate, EncodingRulesRowPerSourceRule) {
  Program p = pigeonhole(4);
  SolveResult r = profiled_solve(p);
  ASSERT_NE(r.profile, nullptr);
  Profile prof = aggregate_profile(*r.profile, p);
  ASSERT_FALSE(prof.rules.empty());
  // One row per unnoted source rule, named by its text, slowest first.
  const Profile::Row* widest = &prof.rules.front();
  for (std::size_t i = 0; i < prof.rules.size(); ++i) {
    const Profile::Row& row = prof.rules[i];
    ASSERT_TRUE(row.loc_known);
    ASSERT_LT(row.rule_index, p.rules().size());
    EXPECT_EQ(row.name, p.rules()[row.rule_index].str());
    if (i > 0) {
      EXPECT_LE(row.ground.seconds, prof.rules[i - 1].ground.seconds);
    }
    if (row.ground.join_candidates > widest->ground.join_candidates) {
      widest = &row;
    }
  }
  // The pairwise constraint scans the most join candidates.
  EXPECT_EQ(widest->name, p.rules().back().str());
  std::string summary = prof.summary(3);
  EXPECT_NE(summary.find("hot encoding rules:"), std::string::npos);
  EXPECT_NE(summary.find(prof.rules.front().name), std::string::npos);
  // Console only: the splice-profile-v1 payload is unchanged.
  EXPECT_EQ(prof.to_json().find("rules"), nullptr);
}

TEST(ProfileAggregate, JsonAndFoldedShapes) {
  SolveResult r = profiled_solve(pigeonhole(4));
  ASSERT_NE(r.profile, nullptr);
  Profile prof = aggregate_profile(*r.profile, pigeonhole(4));
  json::Value j = prof.to_json();
  ASSERT_NE(j.find("totals"), nullptr);
  ASSERT_NE(j.find("directives"), nullptr);
  ASSERT_NE(j.find("predicates"), nullptr);
  ASSERT_NE(j.find("buckets"), nullptr);
  // Folded stacks: every line is "layer;counter;frame N".
  std::string folded = prof.folded();
  EXPECT_FALSE(folded.empty());
  std::size_t start = 0;
  while (start < folded.size()) {
    std::size_t end = folded.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    std::string line = folded.substr(start, end - start);
    EXPECT_EQ(std::count(line.begin(), line.end(), ';'), 2) << line;
    std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(std::strtoull(line.c_str() + space + 1, nullptr, 10), 0u)
        << line;
    start = end + 1;
  }
  EXPECT_FALSE(prof.summary(5).empty());
  EXPECT_FALSE(prof.top_line(3).empty());
}

}  // namespace
}  // namespace splice::asp

namespace splice::concretize {
namespace {

TEST(ConcretizerProfile, RadiussTopDirectiveHasSourceLocation) {
  repo::Repository repo = workload::radiuss_repo();
  ConcretizerOptions opts;
  opts.enable_splicing = true;
  Concretizer c(repo, opts);
  for (const auto& s : workload::local_cache_specs(repo)) c.add_reusable(s);

  ProfileReport report = c.profile({Request("visit ^mpiabi")});
  EXPECT_TRUE(report.sat);
  ASSERT_FALSE(report.profile.directives.empty());
  const asp::Profile::Row& top = report.profile.directives.front();
  EXPECT_FALSE(top.name.empty());
  EXPECT_TRUE(top.loc_known);
  EXPECT_FALSE(top.file.empty());
  EXPECT_GT(top.line, 0u);

  json::Value doc = report.to_json();
  const json::Value* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->as_string(), "splice-profile-v1");
  ASSERT_NE(doc.find("requests"), nullptr);
  EXPECT_EQ(doc.find("requests")->as_array().size(), 1u);
  EXPECT_NE(report.text(5).find("hot directives"), std::string::npos);
  EXPECT_FALSE(report.folded().empty());
}

TEST(ConcretizerProfile, DirectiveOrderRepeatsAcrossRuns) {
  // Rows are ranked by deterministic counters, so timer noise cannot
  // reorder them between runs of the same request.
  repo::Repository repo = workload::radiuss_repo();
  ConcretizerOptions opts;
  opts.enable_splicing = true;
  Concretizer c(repo, opts);
  for (const auto& s : workload::local_cache_specs(repo)) c.add_reusable(s);

  auto order = [&] {
    ProfileReport report = c.profile({Request("visit ^mpiabi")});
    EXPECT_TRUE(report.sat);
    std::vector<std::string> names;
    for (const asp::Profile::Row& row : report.profile.directives) {
      names.push_back(row.name);
    }
    return names;
  };
  std::vector<std::string> first = order();
  ASSERT_GT(first.size(), 1u);
  for (int run = 1; run < 5; ++run) EXPECT_EQ(order(), first) << "run " << run;
}

TEST(ConcretizerProfile, UnsatRequestStillAttributed) {
  repo::Repository repo = workload::radiuss_repo();
  Concretizer c(repo, {});
  ProfileReport report =
      c.profile({Request("visit ^mpich@3.4.3"), Request("visit ^mpich@3.1")});
  EXPECT_FALSE(report.sat);
  // Grounding cost exists even without a model; the report names it.
  EXPECT_FALSE(report.profile.directives.empty() &&
               report.profile.predicates.empty());
}

TEST(ConcretizerProfile, EnvHookExportsMetricsAndFlightNote) {
  // SPLICE_PROFILE rides the normal concretize() path: profile/* metrics
  // appear in the registry and the flight account's note names the top
  // directives.  The env check is latched on first use, so this test sets
  // the variable before the first concretization in this process.
  ::setenv("SPLICE_PROFILE", "1", 1);
  repo::Repository repo = workload::radiuss_repo();
  ConcretizerOptions opts;
  opts.enable_splicing = true;
  Concretizer c(repo, opts);
  for (const auto& s : workload::local_cache_specs(repo)) c.add_reusable(s);
  ConcretizeResult result = c.concretize(Request("visit ^mpiabi"));
  EXPECT_FALSE(result.spec.nodes().empty());

  trace::MetricsRegistry& m = trace::Tracer::global().metrics();
  EXPECT_EQ(m.counter("profile/solves"), 1);
  EXPECT_GT(m.counter("profile/attributed_propagations") +
                m.counter("profile/unattributed_propagations"),
            0);
  std::string text = m.metrics_text();
  EXPECT_NE(text.find("splice_profile{key=\"solves\"} 1"), std::string::npos);

  // The finished request account carries the top-3 digest as its note.
  json::Value dump = flight::Recorder::global().dump_json("test");
  const json::Value* reqs = dump.find("requests");
  ASSERT_NE(reqs, nullptr);
  bool found = false;
  for (const json::Value& r : reqs->as_array()) {
    const json::Value* note = r.find("note");
    if (note != nullptr &&
        note->as_string().find("hot directives:") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace splice::concretize
