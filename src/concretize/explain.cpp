// Implementation of the concretizer-level explanation entry points declared
// in src/concretize/explain.hpp / concretizer.hpp.
#include "src/concretize/explain.hpp"

#include <algorithm>
#include <tuple>

#include "src/concretize/concretizer.hpp"
#include "src/support/error.hpp"
#include "src/support/flight.hpp"
#include "src/support/strings.hpp"
#include "src/support/trace.hpp"

namespace splice::concretize {

using asp::Term;

// ---- UnsatDiagnosis ---------------------------------------------------------

std::string UnsatDiagnosis::text() const {
  std::string out = explanation.sat ? "request set is satisfiable:\n"
                                    : "cannot concretize:\n";
  for (const std::string& r : requests) out += "  " + r + "\n";
  out += explanation.text();
  return out;
}

json::Value UnsatDiagnosis::to_json() const {
  json::Object o;
  o["schema"] = std::string("splice-explain-v1");
  o["mode"] = std::string("unsat");
  json::Array reqs;
  for (const std::string& r : requests) reqs.emplace_back(r);
  o["requests"] = std::move(reqs);
  o["explanation"] = explanation.to_json();
  return json::Value(std::move(o));
}

// ---- SpliceDiagnosis --------------------------------------------------------

json::Value SpliceCandidateTrace::to_json() const {
  json::Object o;
  o["parent"] = parent_name;
  o["parent_hash"] = parent_hash;
  o["dependency"] = dependency;
  o["dependency_hash"] = dependency_hash;
  o["replacement"] = replacement;
  o["can_splice_held"] = can_splice_held;
  o["parent_reused"] = parent_reused;
  o["spliced_away"] = spliced_away;
  o["chosen"] = chosen;
  o["verdict"] = verdict;
  o["directive"] = directive;
  if (loc.known()) {
    o["line"] = static_cast<std::int64_t>(loc.line);
    o["col"] = static_cast<std::int64_t>(loc.col);
  }
  return json::Value(std::move(o));
}

std::string SpliceDiagnosis::text() const {
  std::string out = "splice report for:\n";
  for (const std::string& r : requests) out += "  " + r + "\n";
  if (!sat) {
    out += "no solution exists; run explain_unsat for the conflicting "
           "constraints\n";
    return out;
  }
  out += "solution found; " + std::to_string(candidates.size()) +
         " splice candidate" + (candidates.size() == 1 ? "" : "s") + ", " +
         std::to_string(executed) + " executed\n";
  if (!costs.empty()) {
    out += "optimization costs:";
    for (const auto& [priority, cost] : costs) {
      out += " " + std::to_string(cost) + "@" + std::to_string(priority);
    }
    out += "\n";
  }
  for (const SpliceCandidateTrace& c : candidates) {
    out += "  - " + c.parent_name + "/" + c.parent_hash + " dependency " +
           c.dependency + "/" + c.dependency_hash + " -> " + c.replacement +
           "\n";
    out += "      " + c.verdict + "\n";
    if (!c.directive.empty()) {
      out += "      directive: " + c.directive;
      if (c.loc.known()) out += "  [at " + c.loc.str() + "]";
      out += "\n";
    }
  }
  return out;
}

json::Value SpliceDiagnosis::to_json() const {
  json::Object o;
  o["schema"] = std::string("splice-explain-v1");
  o["mode"] = std::string("splice");
  json::Array reqs;
  for (const std::string& r : requests) reqs.emplace_back(r);
  o["requests"] = std::move(reqs);
  json::Object ex;
  ex["sat"] = sat;
  ex["executed"] = static_cast<std::int64_t>(executed);
  json::Array cands;
  for (const SpliceCandidateTrace& c : candidates) cands.push_back(c.to_json());
  ex["candidates"] = std::move(cands);
  json::Array cost_arr;
  for (const auto& [priority, cost] : costs) {
    json::Object e;
    e["priority"] = priority;
    e["cost"] = cost;
    cost_arr.push_back(json::Value(std::move(e)));
  }
  ex["costs"] = std::move(cost_arr);
  o["explanation"] = std::move(ex);
  return json::Value(std::move(o));
}

// ---- Concretizer entry points ----------------------------------------------

UnsatDiagnosis Concretizer::explain_unsat(const std::vector<Request>& requests,
                                          const asp::ExplainOptions& opts)
    const {
  UnsatDiagnosis d;
  for (const Request& r : requests) d.requests.push_back(r.root.str());
  flight::RequestScope request("explain unsat: " + join(d.requests, "; "));
  flight::PhaseScope probe(flight::Phase::Explain, "explain_unsat",
                           "concretize");
  probe.attr("requests", requests.size());
  asp::Program program = compile_program(requests);
  d.explanation = asp::explain_unsat(program, opts);
  probe.attr("sat", d.explanation.sat);
  probe.attr("core", d.explanation.core.size());
  return d;
}

SpliceDiagnosis Concretizer::explain_splice(
    const std::vector<Request>& requests) const {
  if (!opts_.enable_splicing) {
    throw Error("explain_splice requires ConcretizerOptions::enable_splicing");
  }
  SpliceDiagnosis d;
  PassOptions po;
  po.name = "explain_splice";
  po.label = "explain splice: ";
  po.keep_ground = true;
  run_pass(requests, po, [&](Pass& pass) {
    for (const Request& r : requests) d.requests.push_back(r.root.str());
    d.sat = pass.solved.sat;
    if (!d.sat) return;
    d.costs = pass.solved.model.costs;
    const asp::Model& model = pass.solved.model;
    const asp::GroundProgram& gp = pass.ground;
    const asp::Program& program = pass.program;

    // Every splice_candidate(H, D, R) the grounder derived is a candidate the
    // solver weighed, whether or not it is true in the chosen model.
    const asp::SigId cand_sig = Term::intern_sig("splice_candidate", 3);
    for (asp::AtomId a = 0; a < gp.num_atoms(); ++a) {
      Term t = gp.atom_term(a);
      if (t.sig() != cand_sig) continue;
      SpliceCandidateTrace c;
      Term h = t.args()[0];
      Term dep = t.args()[1];
      Term repl = t.args()[2];
      c.parent_hash = std::string(h.name());
      c.dependency = std::string(dep.name());
      c.replacement = std::string(repl.name());

      // Identify the cached parent and the replaced dependency's hash from the
      // reusable index (the same data the hash_attr facts were compiled from).
      auto cached = reusable_.find(c.parent_hash);
      if (cached != reusable_.end()) {
        const spec::Spec& s = cached->second;
        c.parent_name = s.root().name;
        for (const spec::SpecNode& n : s.nodes()) {
          if (n.name == c.dependency) {
            c.dependency_hash = n.hash;
            break;
          }
        }
      }

      c.parent_reused = model.contains(Term::fun("imposed_any", {h}));
      c.spliced_away = model.contains(Term::fun("spliced_away", {h, dep}));
      c.chosen = model.contains(Term::fun("splice_with", {h, dep, repl}));
      Term can = Term::fun(
          "can_splice",
          {Term::fun("node", {repl}), dep, Term::str(c.dependency_hash)});
      c.can_splice_held = model.contains(can);

      // The can_splice directive behind this candidate, via the grounder's
      // derivation provenance of the can_splice atom.
      if (gp.provenance) {
        auto it = gp.provenance->atom_origin.find(can.id());
        if (it != gp.provenance->atom_origin.end() &&
            it->second.rule_index != asp::Provenance::kNoRule &&
            it->second.rule_index < program.rules().size()) {
          const asp::Rule& r = program.rules()[it->second.rule_index];
          c.directive = r.note.empty() ? r.str() : r.note;
          c.loc = r.loc;
        }
      }

      if (c.chosen) {
        c.verdict = "executed: " + c.parent_name + "'s " + c.dependency +
                    " replaced by solution node " + c.replacement;
      } else if (!c.parent_reused) {
        c.verdict = "not applicable: parent " + c.parent_name +
                    " was not reused in this solution";
      } else if (!c.can_splice_held) {
        c.verdict = "rejected: replacement " + c.replacement +
                    " is not in the solution with a can_splice-compatible "
                    "configuration";
      } else if (c.spliced_away) {
        c.verdict = "rejected: the dependency was spliced, but a different "
                    "candidate was chosen";
      } else {
        c.verdict = "rejected by optimization: plain reuse is cheaper than the "
                    "splice penalty (1@50)";
      }
      d.candidates.push_back(std::move(c));
    }

    std::sort(d.candidates.begin(), d.candidates.end(),
              [](const SpliceCandidateTrace& a, const SpliceCandidateTrace& b) {
                return std::tie(a.parent_hash, a.dependency, a.replacement) <
                       std::tie(b.parent_hash, b.dependency, b.replacement);
              });
    d.executed = static_cast<std::size_t>(
        std::count_if(d.candidates.begin(), d.candidates.end(),
                      [](const SpliceCandidateTrace& c) { return c.chosen; }));
    pass.span->attr("candidates", d.candidates.size());
    pass.span->attr("executed", d.executed);
  });
  return d;
}

}  // namespace splice::concretize
