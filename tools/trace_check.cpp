// trace_check: structural validator for the artifacts this repo emits.
//
// Each JSON format is one row of kSchemas below, which is the list of the
// formats checked: a shape table of field kinds, walked by one checker,
// plus a short named hook where a rule spans several fields.  Prometheus
// text exposition (*.prom, or any input not starting with '{'; from
// MetricsRegistry::metrics_text) is a line grammar with its own checker.
// A failure names the JSON path it concerns; a valid file prints one OK
// line.  Exit 0: every file validated; 1: some did not; 2: usage error.
//
// usage: trace_check FILE...
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/support/error.hpp"
#include "src/support/json.hpp"
#include "src/support/strings.hpp"

namespace {

using splice::json::Value;

int errors = 0;

void fail(const std::string& file, const std::string& what) {
  std::fprintf(stderr, "trace_check: %s: %s\n", file.c_str(), what.c_str());
  ++errors;
}

// ---- Shape tables ----------------------------------------------------------

/// Field kinds: the scalars convert to a Shape directly; the composite
/// kinds are built by one_of(), object(), map_of(), array_of() and ref().
enum Kind {
  Any, Number, Integer, Count, Duration, String, Text, Bool,
  Enum, Object, Array, NonEmptyArray, Ref
};

struct Field;

/// A rule across several fields of one object, run after its fields.
using Hook = void (*)(const std::string& file, const Value& obj,
                      const std::string& path);

struct Shape {
  Shape(Kind k = Any);  // implicit: a table names a scalar kind directly
  Kind kind;
  std::vector<std::string> names;  ///< Enum: the allowed strings
  std::vector<Field> fields;       ///< Object: the named members
  std::vector<Shape> item;  ///< Array: every element; Object: every member
  /// Object: the fields also required when member `by` equals the value.
  std::string by;
  std::vector<std::pair<Value, std::vector<Field>>> cases;
  Hook hook = nullptr;         ///< Object
  const Shape* ref = nullptr;  ///< Ref: a shape that contains itself
};

/// Each of `keys` must be present (unless optional) with `shape`.
struct Field {
  Field(std::vector<std::string> k, Shape s, bool opt = false)
      : keys(std::move(k)), shape(std::move(s)), optional(opt) {}
  std::vector<std::string> keys;
  Shape shape;
  bool optional;
};

Shape::Shape(Kind k) : kind(k) {}

Shape one_of(std::vector<std::string> names) {
  Shape s(Enum);
  s.names = std::move(names);
  return s;
}
Shape object(std::vector<Field> fields, Hook hook = nullptr) {
  Shape s(Object);
  s.fields = std::move(fields);
  s.hook = hook;
  return s;
}
/// An object whose `keys` are all numbers.
Shape numbers(std::vector<std::string> keys) {
  return object({{std::move(keys), Number}});
}
Shape when(Shape obj, std::string by,
           std::vector<std::pair<Value, std::vector<Field>>> cases) {
  obj.by = std::move(by);
  obj.cases = std::move(cases);
  return obj;
}
Shape array_of(Shape item, Kind kind = Array) {
  Shape s(kind);
  s.item = {std::move(item)};
  return s;
}
Shape map_of(Shape item) { return array_of(std::move(item), Object); }
Shape ref(const Shape* shape) {
  Shape s(Ref);
  s.ref = shape;
  return s;
}
/// A "source" object: `always`, plus `if_known` when "known" is true.
Shape source(std::vector<Field> always, std::vector<Field> if_known) {
  always.emplace_back(std::vector<std::string>{"known"}, Bool);
  return when(object(std::move(always)), "known",
              {{true, std::move(if_known)}});
}

bool matches(const Value& v, const Shape& s) {
  switch (s.kind) {
    case Any: return true;
    case Number: return v.is_number();
    case Integer: return v.is_int();
    case Count: return v.is_int() && v.as_int() >= 0;
    case Duration: return v.is_number() && v.as_double() >= 0;
    case String: return v.is_string();
    case Text: return v.is_string() && !v.as_string().empty();
    case Bool: return v.is_bool();
    case Enum:
      return v.is_string() && std::find(s.names.begin(), s.names.end(),
                                        v.as_string()) != s.names.end();
    case Object: return v.is_object();
    case Array: return v.is_array();
    case NonEmptyArray: return v.is_array() && !v.as_array().empty();
    case Ref: return matches(v, *s.ref);
  }
  return false;
}

std::string describe(const Shape& s) {
  switch (s.kind) {
    case Any: return "a value";
    case Number: return "a number";
    case Integer: return "an integer";
    case Count: return "a non-negative integer";
    case Duration: return "a non-negative number";
    case String: return "a string";
    case Text: return "a non-empty string";
    case Bool: return "a boolean";
    case Enum: return "one of " + splice::join(s.names, "/");
    case Object: return "an object";
    case Array: return "an array";
    case NonEmptyArray: return "a non-empty array";
    case Ref: return describe(*s.ref);
  }
  return "";
}

/// Paths name object members as "a/b" and array elements as "a[0]".
std::string join(const std::string& path, const std::string& key) {
  return path.empty() ? key : path + "/" + key;
}

void fail_at(const std::string& file, const std::string& path,
             const std::string& what) {
  fail(file, path.empty() ? what : path + ": " + what);
}

void check(const std::string& file, const Value& v, const Shape& s,
           const std::string& path);

void check_fields(const std::string& file, const Value& obj,
                  const std::vector<Field>& fields, const std::string& path) {
  for (const Field& f : fields) {
    for (const std::string& key : f.keys) {
      if (const Value* v = obj.find(key)) {
        check(file, *v, f.shape, join(path, key));
      } else if (!f.optional) {
        fail_at(file, join(path, key),
                "missing, expected " + describe(f.shape));
      }
    }
  }
}

/// The one walker: checks `v` against `s`, reporting each mismatch.
void check(const std::string& file, const Value& v, const Shape& s,
           const std::string& path) {
  if (s.kind == Ref) return check(file, v, *s.ref, path);
  int before = errors;
  if (!matches(v, s)) {
    std::string got = v.is_array()    ? "an array"
                      : v.is_object() ? "an object"
                                      : v.dump().substr(0, 40);
    return fail_at(file, path, "expected " + describe(s) + ", got " + got);
  }
  if (s.kind == Array || s.kind == NonEmptyArray) {
    std::size_t i = 0;
    for (const Value& x : v.as_array()) {
      check(file, x, s.item[0], path + "[" + std::to_string(i++) + "]");
    }
  } else if (s.kind == Object) {
    if (!s.item.empty()) {
      for (const auto& [key, x] : v.as_object()) {
        check(file, x, s.item[0], join(path, key));
      }
    }
    check_fields(file, v, s.fields, path);
    const Value* pick = v.find(s.by);
    for (const auto& [value, fields] : s.cases) {
      if (pick != nullptr && *pick == value) {
        check_fields(file, v, fields, path);
      }
    }
    if (s.hook != nullptr && errors == before) s.hook(file, v, path);
  }
}

/// The value at `keys` below `v`, or nullptr.
const Value* at(const Value& v, std::initializer_list<const char*> keys) {
  const Value* cur = &v;
  for (const char* k : keys) {
    if ((cur = cur->find(k)) == nullptr) return nullptr;
  }
  return cur;
}

/// The element count of the array or object at `keys`, as text.
std::string size_at(const Value& v, std::initializer_list<const char*> keys) {
  const Value* x = at(v, keys);
  return std::to_string(x->is_array() ? x->as_array().size()
                                      : x->as_object().size());
}

// ---- Cross-field hooks -----------------------------------------------------
// A hook runs only on an object whose fields all validated, so it relies on
// the shapes the table gives them.

/// splice-batch-v1: the envelope counters match the result rows.
void batch_counts(const std::string& file, const Value& doc,
                  const std::string&) {
  const auto& results = doc.find("results")->as_array();
  auto rows = static_cast<std::int64_t>(results.size());
  std::int64_t ok = std::count_if(
      results.begin(), results.end(),
      [](const Value& row) { return row.find("ok")->as_bool(); });
  const std::pair<const char*, std::int64_t> want[] = {
      {"requests", rows}, {"succeeded", ok}, {"failed", rows - ok}};
  for (const auto& [field, n] : want) {
    std::int64_t declared = doc.find(field)->as_int();
    if (declared != n) {
      fail_at(file, field,
              std::to_string(declared) + " does not match the " +
                  std::to_string(n) + " matching result row(s)");
    }
  }
}

/// repo-audit-v1: summary/errors counts the error-severity findings.
void audit_error_count(const std::string& file, const Value& doc,
                       const std::string&) {
  const Value& declared = *at(doc, {"summary", "errors"});
  const auto& findings = doc.find("findings")->as_array();
  std::int64_t counted = std::count_if(
      findings.begin(), findings.end(),
      [](const Value& f) { return *f.find("severity") == Value("error"); });
  if (declared.is_int() && declared.as_int() >= 0 &&
      declared.as_int() != counted) {
    fail_at(file, "summary/errors",
            "says " + declared.dump() + " error(s) but findings contain " +
                std::to_string(counted));
  }
}

/// splice-profile-v1: directive plus bucket rows partition the solver's
/// propagation and conflict totals (buckets include "encoding-internal",
/// the predicate-table rollup, and "unattributed"; the predicates table is
/// informational, already counted via the rollup).
void profile_conservation(const std::string& file, const Value& prof,
                          const std::string& path) {
  for (const char* counter : {"propagations", "conflicts"}) {
    double total = at(prof, {"totals", "sat", counter})->as_double();
    double sum = 0;
    for (const char* table : {"directives", "buckets"}) {
      for (const Value& row : prof.find(table)->as_array()) {
        sum += at(row, {"sat", counter})->as_double();
      }
    }
    if (total >= 0 && sum != total) {
      fail_at(file, join(path, std::string("totals/sat/") + counter),
              "conservation: directives+buckets sum " + std::to_string(sum) +
                  " != total " + std::to_string(total));
    }
  }
}

/// splice-flight-v1: event sequence numbers strictly increase.
void flight_seq_increasing(const std::string& file, const Value& doc,
                           const std::string&) {
  std::int64_t last = -1;
  std::size_t i = 0;
  for (const Value& ev : doc.find("events")->as_array()) {
    const Value& seq = *ev.find("seq");
    if (seq.is_int() && seq.as_int() <= last) {
      fail_at(file, "events[" + std::to_string(i) + "]/seq",
              "not strictly increasing");
    }
    if (seq.is_int()) last = seq.as_int();
    ++i;
  }
}

/// repo-audit-cache-v1: task ids are "group/name" (or "group//name" for
/// repo-level tasks) with a known check group; keys are 32-hex content
/// hashes (AuditFingerprints).
void audit_cache_ids(const std::string& file, const Value& doc,
                     const std::string&) {
  for (const auto& [task, entry] : doc.find("entries")->as_object()) {
    std::size_t slash = task.find('/');
    std::string group = task.substr(0, slash);
    if (slash == std::string::npos || slash + 1 == task.size() ||
        (group != "constraint" && group != "provider" && group != "splice" &&
         group != "encoding")) {
      fail_at(file, "entries/" + task,
              "task id is not \"group/name\" with a known check group");
    }
    const std::string& key = entry.find("key")->as_string();
    if (key.size() != 32 ||
        key.find_first_not_of("0123456789abcdef") != std::string::npos) {
      fail_at(file, "entries/" + task + "/key", "not a 32-hex content hash");
    }
  }
}

// ---- Schemas ---------------------------------------------------------------

/// One audit finding, shared by repo-audit-v1 and repo-audit-cache-v1.
const Shape kAuditFinding = object({
    {{"id", "package", "directive", "message"}, String},
    {{"severity"}, one_of({"error", "warning", "info"})},
    {{"source"}, source({{{"index"}, Number}},
                        {{{"file"}, String}, {{"line"}, Number}})},
    {{"related"}, array_of(String)},
});

/// One splice-profile-v1 cost-table row.
const Shape kProfileRow = object({
    {{"name"}, String},
    {{"score"}, Number},
    {{"source"}, source({}, {{{"line", "col"}, Number}})},
    {{"sat"},
     numbers({"propagations", "conflicts", "participations", "learned"})},
    {{"ground"},
     numbers({"instantiations", "join_candidates", "emitted", "seconds"})},
});

/// The splice-explain-v1 explanation of an unsatisfiable request.
const Shape kUnsatExplanation = object({
    {{"sat", "unconditional"}, Bool},
    {{"core"},
     array_of(object({
         {{"kind", "constraint"}, String},
         {{"ground_index"}, Number},
         {{"packages"}, array_of(Any)},
         {{"source"}, source({}, {{{"rule"}, String},
                                  {{"rule_index", "line", "col"}, Number}})},
     }))},
    {{"stats"}, numbers({"guarded_constraints", "core_initial",
                         "core_minimized", "minimize_solves"})},
});

/// The splice-explain-v1 explanation of a splice decision.
const Shape kSpliceExplanation = object({
    {{"sat"}, Bool},
    {{"executed"}, Number},
    {{"candidates"},
     array_of(object({
         {{"parent", "parent_hash", "dependency", "dependency_hash",
           "replacement", "verdict", "directive"},
          String},
         {{"can_splice_held", "parent_reused", "spliced_away", "chosen"},
          Bool},
     }))},
    {{"costs"}, array_of(numbers({"priority", "cost"}))},
});

/// The recursive {name, t_us, dur_us, children: [...]} span-tree node.
const Shape kFlightSpan = object({
    {{"name"}, String},
    {{"t_us"}, Number},
    {{"dur_us"}, Duration},
    {{"children"}, array_of(ref(&kFlightSpan)), /*optional=*/true},
});

/// One splice-flight-v1 request account.
const Shape kFlightRequest = object({
    {{"id"}, Number},
    {{"request"}, String},
    {{"outcome"}, one_of({"active", "ok", "unsat", "error", "budget"})},
    {{"begin_us", "end_us", "seconds", "builds", "reused", "splices"},
     Number},
    {{"slow"}, Bool},
    {{"phases"}, map_of(Number)},
    {{"stats"}, numbers({"conflicts", "decisions", "propagations", "restarts",
                         "models", "loop_nogoods", "ground_rules",
                         "ground_atoms", "sat_vars", "sat_clauses"})},
    {{"spans"}, array_of(kFlightSpan)},
});

struct Schema {
  const char* name;  ///< the document's "schema"; nullptr for Chrome traces
  Shape shape;
  std::string (*ok)(const Value& doc);  ///< the OK line after the file name
};

const Schema kSchemas[] = {
    // Chrome trace events (splice run --trace, splice flight chrome); first,
    // as find_schema() picks this row by "traceEvents".
    {nullptr,
     object({{{"traceEvents"},
              array_of(when(object({{{"name"}, String},
                                    {{"ph"}, one_of({"X", "i"})},
                                    {{"ts", "pid", "tid"}, Number}}),
                            "ph",
                            {{"X", {{{"dur"}, Duration}}},
                             {"i", {{{"s"}, String}}}}))}}),
     [](const Value& doc) {
       return "chrome trace OK (" + size_at(doc, {"traceEvents"}) + " events)";
     }},

    {"splice-stats-v1",  // splice run --stats, SPLICE_TRACE_STATS
     object({{{"spans"}, map_of(numbers({"count", "total_seconds",
                                         "mean_seconds", "min_seconds",
                                         "max_seconds"}))},
             {{"events"}, map_of(Integer)},
             {{"metrics"},
              object({{{"counters", "gauges", "histograms"}, Object}})}}),
     [](const Value& doc) {
       return "stats OK (" + size_at(doc, {"spans"}) + " span keys)";
     }},

    // bench/ result files.  A cell's optional comparison direction
    // (bench_diff inverts its regression verdict for "higher") comes with
    // the value's unit.
    {"splice-bench-v1",
     object({{{"bench"}, String},
             {{"series"},
              map_of(map_of(when(
                  object({{{"n", "mean_seconds", "median_seconds",
                            "p90_seconds", "min_seconds", "max_seconds"},
                           Number},
                          {{"direction"}, one_of({"lower", "higher"}), true}}),
                  "direction",
                  {{"lower", {{{"unit"}, String}}},
                   {"higher", {{{"unit"}, String}}}})))}}),
     [](const Value& doc) {
       std::size_t cells = 0;
       for (const auto& [series, labels] : doc.find("series")->as_object()) {
         cells += labels.as_object().size();
       }
       return "bench results OK (" + std::to_string(cells) + " cells)";
     }},

    // splice run --json.  Results keep input order: ok rows carry the
    // concretization counts, failed rows the error message.
    {"splice-batch-v1",
     object({{{"jobs", "workers", "requests", "succeeded", "failed"}, Count},
             {{"seconds", "throughput_rps"}, Number},
             {{"results"},
              array_of(when(
                  object({{{"request"}, String},
                          {{"seconds"}, Number},
                          {{"ok"}, Bool}}),
                  "ok",
                  {{true, {{{"nodes", "builds", "reused", "splices"}, Count}}},
                   {false, {{{"error"}, Text}}}}))}},
            batch_counts),
     [](const Value& doc) {
       return "batch report OK (" + size_at(doc, {"results"}) +
              " result(s), " + doc.find("succeeded")->dump() + " ok, " +
              doc.find("failed")->dump() + " failed)";
     }},

    {"splice-explain-v1",  // splice explain --json
     when(object({{{"mode"}, one_of({"unsat", "splice"})},
                  {{"requests"}, array_of(String)}}),
          "mode",
          {{"unsat", {{{"explanation"}, kUnsatExplanation}}},
           {"splice", {{{"explanation"}, kSpliceExplanation}}}}),
     [](const Value& doc) {
       return "explain (" + doc.find("mode")->as_string() + ") OK";
     }},

    {"splice-profile-v1",  // splice profile --json
     object({{{"requests"}, array_of(String, NonEmptyArray)},
             {{"sat"}, Bool},
             {{"stats"}, numbers({"ground_seconds", "solve_seconds",
                                  "conflicts", "decisions", "propagations"})},
             {{"profile"},
              object({{{"totals"},
                       object({{{"sat"}, numbers({"decisions", "conflicts",
                                                  "propagations", "restarts",
                                                  "learned"})},
                               {{"ground"},
                                numbers({"rules", "choices", "seconds"})},
                               {{"learned_total", "learned_without_origin"},
                                Number}})},
                      {{"directives", "predicates", "buckets"},
                       array_of(kProfileRow)}},
                     profile_conservation)}}),
     [](const Value& doc) {
       return "profile OK (" + size_at(doc, {"profile", "directives"}) +
              " directive row(s))";
     }},

    {"repo-audit-v1",  // repo_audit --json
     object({{{"repo"}, numbers({"packages", "virtuals", "splice_directives",
                                 "binaries", "encoding_programs"})},
             {{"summary"}, object({{{"errors", "warnings", "infos"}, Number},
                                   {{"clean"}, Bool}})},
             {{"findings"}, array_of(kAuditFinding)}},
            audit_error_count),
     [](const Value& doc) {
       return "repo audit OK (" + size_at(doc, {"findings"}) + " findings)";
     }},

    {"repo-audit-cache-v1",  // repo_audit --cache-dir, --incremental
     object({{{"entries"}, map_of(object({{{"key"}, String},
                                          {{"programs"}, Number},
                                          {{"findings"},
                                           array_of(kAuditFinding)}}))}},
            audit_cache_ids),
     [](const Value& doc) {
       return "audit cache OK (" + size_at(doc, {"entries"}) + " entrie(s))";
     }},

    {"splice-flight-v1",  // splice run --flight, slow dumps, SPLICE_FLIGHT_*
     object({{{"reason"}, one_of({"slow", "abnormal", "watchdog", "exit",
                                  "signal", "manual"})},
             {{"capacity", "total_events", "dropped_events", "slow_ms",
               "slow_conflicts"},
              Number},
             {{"requests"}, array_of(kFlightRequest)},
             {{"events"},
              array_of(object({{{"seq", "t_us", "req", "tid"}, Number},
                               {{"kind", "phase"}, String}}))}},
            flight_seq_increasing),
     [](const Value& doc) {
       return "flight recording OK (" + size_at(doc, {"requests"}) +
              " request(s), " + size_at(doc, {"events"}) + " event(s))";
     }},
};

/// The row for `doc`: Chrome traces by "traceEvents", the rest by "schema".
const Schema* find_schema(const Value& doc) {
  if (doc.find("traceEvents") != nullptr) return &kSchemas[0];
  const Value* name = doc.find("schema");
  for (const Schema& s : kSchemas) {
    if (s.name != nullptr && name != nullptr && *name == s.name) return &s;
  }
  return nullptr;
}

// ---- Prometheus text exposition (version 0.0.4) ----------------------------

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
              c == ':' || (i > 0 && c >= '0' && c <= '9');
    if (!ok) return false;
  }
  return true;
}

bool valid_label_name(std::string_view name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
              (i > 0 && c >= '0' && c <= '9');
    if (!ok) return false;
  }
  return true;
}

/// Validate a `name{label="value",...} value [timestamp]` sample line.
/// Returns the metric name via `out_name` (empty on hard parse failure).
void check_prom_sample(const std::string& file, const std::string& line,
                       std::size_t lineno, std::string& out_name,
                       std::map<std::string, std::string>& out_labels) {
  std::string ctx = "line " + std::to_string(lineno);
  std::size_t pos = 0;
  while (pos < line.size() && line[pos] != '{' && line[pos] != ' ') ++pos;
  out_name = line.substr(0, pos);
  if (!valid_metric_name(out_name)) {
    fail(file, ctx + ": invalid metric name \"" + out_name + "\"");
    out_name.clear();
    return;
  }
  if (pos < line.size() && line[pos] == '{') {
    ++pos;
    while (pos < line.size() && line[pos] != '}') {
      std::size_t eq = line.find('=', pos);
      if (eq == std::string::npos) {
        fail(file, ctx + ": malformed label pair");
        return;
      }
      std::string lname = line.substr(pos, eq - pos);
      if (!valid_label_name(lname)) {
        fail(file, ctx + ": invalid label name \"" + lname + "\"");
        return;
      }
      pos = eq + 1;
      if (pos >= line.size() || line[pos] != '"') {
        fail(file, ctx + ": label value for \"" + lname + "\" not quoted");
        return;
      }
      ++pos;
      std::string lvalue;
      while (pos < line.size() && line[pos] != '"') {
        if (line[pos] == '\\' && pos + 1 < line.size()) ++pos;
        lvalue.push_back(line[pos++]);
      }
      if (pos >= line.size()) {
        fail(file, ctx + ": unterminated label value");
        return;
      }
      ++pos;  // closing quote
      out_labels[lname] = lvalue;
      if (pos < line.size() && line[pos] == ',') ++pos;
    }
    if (pos >= line.size() || line[pos] != '}') {
      fail(file, ctx + ": unterminated label set");
      return;
    }
    ++pos;
  }
  if (pos >= line.size() || line[pos] != ' ') {
    fail(file, ctx + ": no value after metric name");
    return;
  }
  ++pos;
  std::string rest = line.substr(pos);
  std::size_t space = rest.find(' ');
  std::string value = rest.substr(0, space);
  if (value != "+Inf" && value != "-Inf" && value != "NaN") {
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') {
      fail(file, ctx + ": unparsable sample value \"" + value + "\"");
    }
  }
  if (space != std::string::npos) {
    std::string ts = rest.substr(space + 1);
    char* end = nullptr;
    std::strtoll(ts.c_str(), &end, 10);
    if (end == ts.c_str() || *end != '\0') {
      fail(file, ctx + ": unparsable timestamp \"" + ts + "\"");
    }
  }
  auto q = out_labels.find("quantile");
  if (q != out_labels.end()) {
    char* end = nullptr;
    double qv = std::strtod(q->second.c_str(), &end);
    if (end == q->second.c_str() || *end != '\0' || qv < 0 || qv > 1) {
      fail(file, ctx + ": quantile \"" + q->second + "\" not in [0, 1]");
    }
  }
}

/// Validate Prometheus text exposition: TYPE/HELP comment syntax, metric and
/// label name grammar, numeric sample values, and that every sample belongs
/// to a family with a preceding # TYPE line (stripping _sum/_count/_bucket
/// for summary and histogram families).
void check_prometheus(const std::string& file, const std::string& text) {
  int before = errors;
  std::map<std::string, std::string> family_type;  // name -> type
  std::size_t samples = 0;
  std::size_t lineno = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ++lineno;
    std::string ctx = "line " + std::to_string(lineno);
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, keyword, name, type;
      ls >> hash >> keyword;
      if (keyword == "TYPE") {
        ls >> name >> type;
        if (!valid_metric_name(name)) {
          fail(file, ctx + ": invalid family name \"" + name + "\"");
          continue;
        }
        if (type != "counter" && type != "gauge" && type != "summary" &&
            type != "histogram" && type != "untyped") {
          fail(file, ctx + ": unknown family type \"" + type + "\"");
          continue;
        }
        if (family_type.count(name) > 0) {
          fail(file, ctx + ": duplicate # TYPE for \"" + name + "\"");
          continue;
        }
        family_type[name] = type;
      }
      // # HELP and other comments pass through unvalidated.
      continue;
    }
    std::string name;
    std::map<std::string, std::string> labels;
    check_prom_sample(file, line, lineno, name, labels);
    if (name.empty()) continue;
    ++samples;
    // Resolve the sample to its declared family: exact, or a _sum/_count
    // (_bucket) series of a summary/histogram family.
    std::string family = name;
    if (family_type.count(family) == 0) {
      for (const char* suffix : {"_sum", "_count", "_bucket"}) {
        std::string s(suffix);
        if (family.size() > s.size() &&
            family.compare(family.size() - s.size(), s.size(), s) == 0) {
          std::string base = family.substr(0, family.size() - s.size());
          auto it = family_type.find(base);
          if (it != family_type.end() &&
              (it->second == "summary" || it->second == "histogram")) {
            if (s == "_bucket" && it->second != "histogram") continue;
            family = base;
            break;
          }
        }
      }
    }
    auto it = family_type.find(family);
    if (it == family_type.end()) {
      fail(file, ctx + ": sample \"" + name +
                     "\" has no preceding # TYPE family declaration");
    } else if (it->second == "summary" && name == family &&
               labels.count("quantile") == 0) {
      fail(file, ctx + ": summary sample \"" + name +
                     "\" without a quantile label");
    }
  }
  if (errors == before) {
    std::printf("trace_check: %s: prometheus text OK "
                "(%zu familie(s), %zu sample(s))\n",
                file.c_str(), family_type.size(), samples);
  }
}

void check_file(const std::string& file) {
  std::ifstream in(file);
  if (!in) {
    fail(file, "cannot open");
    return;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  // Prometheus text exposition: by extension, or by content (a JSON
  // document's first significant character is always '{').
  if (file.size() > 5 && file.compare(file.size() - 5, 5, ".prom") == 0) {
    check_prometheus(file, buf.str());
    return;
  }
  std::size_t first = buf.str().find_first_not_of(" \t\r\n");
  if (first != std::string::npos && buf.str()[first] != '{') {
    check_prometheus(file, buf.str());
    return;
  }
  Value doc;
  try {
    doc = splice::json::parse(buf.str());
  } catch (const splice::Error& e) {
    fail(file, std::string("JSON parse error: ") + e.what());
    return;
  }
  if (!doc.is_object()) {
    fail(file, "top level is not an object");
    return;
  }
  const Schema* schema = find_schema(doc);
  if (schema == nullptr) {
    const Value* name = doc.find("schema");
    fail(file, "unrecognized document (no traceEvents, schema=" +
                   (name != nullptr ? name->dump() : "none") + ")");
    return;
  }
  int before = errors;
  check(file, doc, schema->shape, "");
  if (errors == before) {
    std::printf("trace_check: %s: %s\n", file.c_str(),
                schema->ok(doc).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: trace_check FILE...\n");
    return 2;
  }
  for (int i = 1; i < argc; ++i) check_file(argv[i]);
  return errors == 0 ? 0 : 1;
}
