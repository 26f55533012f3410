// Concretizer-level explanations: "why did my concretization fail?" and
// "why was (or wasn't) this splice performed?".
//
// Both diagnoses serialize to the `splice-explain-v1` JSON schema:
//
//   { "schema": "splice-explain-v1",
//     "mode": "unsat" | "splice",
//     "requests": ["visit ^mpich@3.4.3", ...],
//     "explanation": { ... mode-specific ... } }
//
// Unsat mode wraps asp::UnsatExplanation (minimized constraint core with
// source rules, compiler notes and locations); splice mode reports every
// splice candidate the solver considered, whether it was executed, and why
// not when it wasn't.  tools/trace_check validates the schema;
// `splice explain` (tools/splice.cpp) produces it.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/asp/asp.hpp"
#include "src/support/json.hpp"

namespace splice::concretize {

/// Why a request set cannot be concretized: the request strings plus the
/// minimized unsat core mapped back to source rules and compiler notes.
struct UnsatDiagnosis {
  std::vector<std::string> requests;
  asp::UnsatExplanation explanation;

  /// Multi-line human-readable rendering.
  std::string text() const;
  /// Full `splice-explain-v1` document, mode "unsat".
  json::Value to_json() const;
};

/// One splice candidate the solver considered: reused parent `parent_hash`
/// could have had (or had) its dependency `dependency` replaced by solution
/// node `replacement`.
struct SpliceCandidateTrace {
  std::string parent_name;
  std::string parent_hash;
  std::string dependency;       ///< replaced dependency package name
  std::string dependency_hash;  ///< its hash inside the cached parent
  std::string replacement;      ///< solution node offered as replacement

  bool can_splice_held = false;  ///< can_splice fired in the chosen model
  bool parent_reused = false;    ///< the parent binary was reused at all
  bool spliced_away = false;     ///< the original dependency was dropped
  bool chosen = false;           ///< splice_with selected this replacement

  /// One-line outcome, e.g. "executed: ..." or "rejected: ...".
  std::string verdict;
  /// The can_splice directive behind this candidate (compiler note or
  /// printed source rule), with its source location when known.
  std::string directive;
  asp::SourceLoc loc;

  json::Value to_json() const;
};

/// The splice decisions of one solve: every candidate, the optimization
/// costs of the chosen model, and how many splices were executed.
struct SpliceDiagnosis {
  bool sat = false;
  std::vector<std::string> requests;
  std::vector<SpliceCandidateTrace> candidates;
  /// (priority, cost) of the chosen model, highest priority first.
  std::vector<std::pair<std::int64_t, std::int64_t>> costs;
  std::size_t executed = 0;  ///< candidates with chosen == true

  /// Multi-line human-readable rendering.
  std::string text() const;
  /// Full `splice-explain-v1` document, mode "splice".
  json::Value to_json() const;
};

}  // namespace splice::concretize
