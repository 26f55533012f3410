// asp_lint: static analyzer CLI for the mini-ASP dialect.
//
// Parses one or more .lp files (or stdin when no file is given), runs the
// predicate-graph analyzer over the combined program and prints one
// diagnostic per line as `severity: kind at line:col: message`.
//
//   asp_lint encoding.lp facts.lp
//   asp_lint --external installed_hash --output attr encoding.lp
//   splice-concretize-dump | asp_lint -
//
// Exit status: 0 clean (or warnings only), 1 errors found (or warnings with
// --werror), 2 usage / parse failure.
#include <fstream>
#include <iomanip>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/asp/asp.hpp"
#include "src/support/error.hpp"
#include "src/support/trace.hpp"

namespace {

/// Count rule/atom/predicate totals into the metrics registry — the numbers
/// the --report summary prints (and SPLICE_TRACE_STATS exports).
void record_program_metrics(const splice::asp::Program& program,
                            splice::trace::MetricsRegistry& metrics) {
  std::set<std::string> predicates;
  std::int64_t atoms = 0;
  auto see = [&](const splice::asp::Term& atom) {
    predicates.insert(atom.signature());
    ++atoms;
  };
  for (const auto& rule : program.rules()) {
    if (rule.head.kind == splice::asp::Head::Kind::Atom) {
      see(rule.head.atom);
    } else if (rule.head.kind == splice::asp::Head::Kind::Choice) {
      for (const auto& el : rule.head.elements) {
        see(el.atom);
        for (const auto& lit : el.condition) see(lit.atom);
      }
    }
    for (const auto& lit : rule.body) see(lit.atom);
  }
  for (const auto& elem : program.minimizes()) {
    for (const auto& lit : elem.condition) see(lit.atom);
  }
  metrics.add("lint.rules", static_cast<std::int64_t>(program.rules().size()));
  metrics.add("lint.atom_occurrences", atoms);
  metrics.add("lint.predicates", static_cast<std::int64_t>(predicates.size()));
}

}  // namespace

namespace {

constexpr const char* kUsage = R"(usage: asp_lint [options] [file.lp ...]

Statically analyzes ASP programs: arity mismatches, undefined predicates,
dead predicates, singleton variables and stratification.  Reads stdin when
no file (or "-") is given; several files are linted as one program.

options:
  --mixed-arity NAME   allow NAME at several arities (repeatable)
  --external PRED      treat PRED (name or name/arity) as externally
                       defined; suppresses undefined-predicate (repeatable)
  --output PRED        treat PRED as a model output; suppresses
                       dead-predicate (repeatable)
  --werror             exit nonzero on warnings too
  --report             also print the recursive-component summary
  -h, --help           this message
)";

bool read_stream(std::istream& in, std::string& out) {
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return !in.bad();
}

}  // namespace

int main(int argc, char** argv) {
  using splice::asp::AnalyzeOptions;
  AnalyzeOptions opts;
  std::vector<std::string> files;
  bool werror = false;
  bool report = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "asp_lint: " << flag << " needs an argument\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "-h" || arg == "--help") {
      std::cout << kUsage;
      return 0;
    } else if (arg == "--mixed-arity") {
      opts.mixed_arity_ok.insert(value("--mixed-arity"));
    } else if (arg == "--external") {
      opts.externals.insert(value("--external"));
    } else if (arg == "--output") {
      opts.outputs.insert(value("--output"));
    } else if (arg == "--werror") {
      werror = true;
    } else if (arg == "--report") {
      report = true;
    } else if (arg == "-") {
      files.push_back("-");
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "asp_lint: unknown option '" << arg << "'\n" << kUsage;
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) files.push_back("-");

  std::string text;
  for (const auto& file : files) {
    std::string chunk;
    if (file == "-") {
      if (!read_stream(std::cin, chunk)) {
        std::cerr << "asp_lint: failed reading stdin\n";
        return 2;
      }
    } else {
      std::ifstream in(file);
      if (!in || !read_stream(in, chunk)) {
        std::cerr << "asp_lint: cannot read '" << file << "'\n";
        return 2;
      }
    }
    text += chunk;
    if (!text.empty() && text.back() != '\n') text += '\n';
  }

  splice::trace::Tracer& tracer = splice::trace::Tracer::global();
  if (report) tracer.set_enabled(true);

  splice::asp::Program program;
  try {
    splice::trace::Span parse_span("parse", "lint");
    program = splice::asp::parse_program(text);
  } catch (const splice::ParseError& e) {
    std::cerr << "asp_lint: parse error: " << e.what() << "\n";
    return 2;
  }

  splice::trace::Span analyze_span("analyze", "lint");
  const splice::asp::AnalysisReport result =
      splice::asp::analyze(program, opts);
  double analyze_seconds = analyze_span.end();

  for (const auto& d : result.diagnostics) std::cout << d.str() << "\n";
  if (report) {
    splice::trace::MetricsRegistry& metrics = tracer.metrics();
    record_program_metrics(program, metrics);
    metrics.set_gauge("lint.analyze_seconds", analyze_seconds);
    metrics.add("lint.diagnostics",
                static_cast<std::int64_t>(result.diagnostics.size()));
    std::cout << "-- " << metrics.counter("lint.rules") << " rules, "
              << metrics.counter("lint.atom_occurrences")
              << " atom occurrence(s), " << metrics.counter("lint.predicates")
              << " predicate(s), " << result.recursive_components.size()
              << " recursive component(s), "
              << (result.stratified ? "stratified" : "unstratified") << "\n";
    std::cout << "-- analyzed in " << std::fixed << std::setprecision(6)
              << analyze_seconds << "s\n";
    for (const auto& scc : result.recursive_components) {
      std::cout << "   component:";
      for (const auto& p : scc.predicates) std::cout << " " << p;
      if (scc.has_negative_edge) std::cout << " [negation]";
      if (scc.has_choice_edge) std::cout << " [choice]";
      std::cout << "\n";
    }
  }

  if (result.has_errors()) return 1;
  if (werror && result.count(splice::asp::DiagSeverity::Warning) > 0) return 1;
  return 0;
}
