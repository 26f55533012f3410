#include "src/asp/profile.hpp"

#include <algorithm>
#include <map>

namespace splice::asp {

namespace {

using OriginCost = sat::SatProfile::OriginCost;

void add_cost(OriginCost& dst, const OriginCost& src) {
  dst.propagations += src.propagations;
  dst.conflicts += src.conflicts;
  dst.participations += src.participations;
  dst.learned += src.learned;
}

bool cost_empty(const OriginCost& c) {
  return c.propagations == 0 && c.conflicts == 0 && c.participations == 0 &&
         c.learned == 0;
}

/// The predicate a source rule defines, for the per-predicate table of
/// unnoted (encoding-internal) rules.
std::string head_pred(const Rule& r) {
  switch (r.head.kind) {
    case Head::Kind::Atom:
      return Term::sig_str(r.head.atom.sig());
    case Head::Kind::Choice:
      return r.head.elements.empty()
                 ? "choice"
                 : Term::sig_str(r.head.elements[0].atom.sig());
    case Head::Kind::None:
      return "constraint";
  }
  return "constraint";
}

json::Value sat_cost_json(const OriginCost& c) {
  json::Object o;
  o["propagations"] = c.propagations;
  o["conflicts"] = c.conflicts;
  o["participations"] = c.participations;
  o["learned"] = c.learned;
  return json::Value(std::move(o));
}

json::Value ground_cost_json(const Profile::GroundCost& g) {
  json::Object o;
  o["instantiations"] = g.instantiations;
  o["join_candidates"] = g.join_candidates;
  o["emitted"] = g.emitted;
  o["seconds"] = g.seconds;
  return json::Value(std::move(o));
}

/// Folded-stack frames must not contain the separator; notes are free text.
std::string frame(std::string s) {
  for (char& c : s) {
    if (c == ';') c = ',';
  }
  return s;
}

void fold_row(std::string& out, const char* layer, const Profile::Row& r) {
  std::string f = frame(r.name);
  auto line = [&](const char* counter, std::uint64_t n) {
    if (n == 0) return;
    out += layer;
    out += ';';
    out += counter;
    out += ';';
    out += f;
    out += ' ';
    out += std::to_string(n);
    out += '\n';
  };
  line("propagations", r.sat.propagations);
  line("conflicts", r.sat.conflicts);
  line("participations", r.sat.participations);
  line("instantiations", r.ground.instantiations);
  line("join_candidates", r.ground.join_candidates);
}

}  // namespace

double Profile::Row::score() const {
  return 25.0 * static_cast<double>(sat.conflicts) +
         static_cast<double>(sat.participations) +
         0.1 * static_cast<double>(sat.propagations) +
         static_cast<double>(ground.instantiations) +
         0.05 * static_cast<double>(ground.join_candidates);
}

json::Value Profile::Row::to_json() const {
  json::Object o;
  o["name"] = name;
  json::Object src;
  src["known"] = loc_known;
  if (!file.empty()) src["file"] = file;
  if (loc_known) {
    if (rule_index != 0xffffffffu) {
      src["rule_index"] = static_cast<std::int64_t>(rule_index);
    }
    src["line"] = static_cast<std::int64_t>(line);
    src["col"] = static_cast<std::int64_t>(col);
  }
  o["source"] = json::Value(std::move(src));
  o["sat"] = sat_cost_json(sat);
  o["ground"] = ground_cost_json(ground);
  o["score"] = score();
  return json::Value(std::move(o));
}

json::Value Profile::to_json() const {
  json::Object o;
  json::Object totals;
  totals["sat"] = sat_totals.to_json();
  totals["ground"] = ground_totals.to_json();
  totals["unattributed"] = sat_cost_json(unattributed);
  totals["learned_total"] = learned_total;
  totals["learned_without_origin"] = learned_without_origin;
  o["totals"] = json::Value(std::move(totals));
  auto rows = [](const std::vector<Row>& v) {
    json::Array a;
    a.reserve(v.size());
    for (const Row& r : v) a.push_back(r.to_json());
    return json::Value(std::move(a));
  };
  o["directives"] = rows(directives);
  o["predicates"] = rows(predicates);
  o["buckets"] = rows(buckets);
  return json::Value(std::move(o));
}

std::string Profile::folded() const {
  std::string out;
  for (const Row& r : directives) fold_row(out, "directive", r);
  for (const Row& r : predicates) fold_row(out, "encoding", r);
  for (const Row& r : buckets) fold_row(out, "bucket", r);
  return out;
}

std::string Profile::summary(std::size_t top) const {
  // " (file:line)" for resolved directives, " (rule N @ line:col)" for
  // source rules with a known location, "" otherwise.
  auto where = [](const Row& r) -> std::string {
    if (!r.file.empty()) return " (" + r.file + ":" + std::to_string(r.line) + ")";
    if (!r.loc_known) return {};
    return " (rule " + std::to_string(r.rule_index) + " @ " +
           std::to_string(r.line) + ":" + std::to_string(r.col) + ")";
  };
  std::string out;
  auto table = [&](const char* title, const std::vector<Row>& v,
                   std::size_t limit) {
    if (v.empty()) return;
    out += title;
    out += '\n';
    std::size_t n = 0;
    for (const Row& r : v) {
      if (limit != 0 && n++ >= limit) break;
      out += "  " + r.name + where(r);
      out += "\n    score " + std::to_string(r.score()) +
             ", sat: " + std::to_string(r.sat.propagations) + " prop / " +
             std::to_string(r.sat.conflicts) + " confl / " +
             std::to_string(r.sat.participations) + " partic, ground: " +
             std::to_string(r.ground.instantiations) + " inst / " +
             std::to_string(r.ground.join_candidates) + " cand / " +
             std::to_string(r.ground.seconds) + " s\n";
    }
  };
  table("hot directives:", directives, top);
  table("hot encoding predicates:", predicates, top);
  if (!rules.empty()) {
    out += "hot encoding rules:\n";
    std::size_t n = 0;
    for (const Row& r : rules) {
      if (top != 0 && n++ >= top) break;
      out += "  " + r.name + where(r) + "\n    ground: " +
             std::to_string(r.ground.instantiations) + " inst / " +
             std::to_string(r.ground.join_candidates) + " cand / " +
             std::to_string(r.ground.seconds) + " s\n";
    }
  }
  table("buckets:", buckets, 0);
  return out;
}

std::string Profile::top_line(std::size_t n) const {
  if (directives.empty()) return "profile: no directive-attributed cost";
  std::string out = "hot directives:";
  for (std::size_t i = 0; i < directives.size() && i < n; ++i) {
    const Row& r = directives[i];
    out += i == 0 ? " " : "; ";
    out += r.name;
    if (!r.file.empty()) {
      out += " (" + r.file + ":" + std::to_string(r.line) + ")";
    }
  }
  return out;
}

Profile aggregate_profile(const ProfileData& data, const Program& source) {
  Profile p;
  p.sat_totals = data.sat_stats;
  p.ground_totals = data.ground_stats;
  p.unattributed = data.sat.unattributed;
  p.learned_total = data.sat.learned_total;
  p.learned_without_origin = data.sat.learned_without_origin;

  const std::size_t nrules = source.rules().size();
  const Provenance* prov = data.provenance.get();

  // Pass 1: fold per-origin SAT cost onto source rules (via the origin map
  // and provenance) or into named buckets.  Completion cost whose atom has
  // no recorded derivation falls back to the atom's predicate.
  std::vector<OriginCost> rule_sat(nrules);
  std::map<std::string, OriginCost> pred_sat;
  OriginCost fact_sat, minimize_sat, loop_sat, opt_sat, internal_sat;

  auto source_rule_of = [&](const ClauseOriginMap::Entry& e) -> std::uint32_t {
    switch (e.kind) {
      case ClauseOriginMap::Kind::Rule:
        if (prov && e.index < prov->rule_origin.size()) {
          return prov->rule_origin[e.index].rule_index;
        }
        return Provenance::kNoRule;
      case ClauseOriginMap::Kind::Choice:
        if (prov && e.index < prov->choice_origin.size()) {
          return prov->choice_origin[e.index].rule_index;
        }
        return Provenance::kNoRule;
      case ClauseOriginMap::Kind::Completion:
        if (prov && e.index < data.atom_terms.size()) {
          auto it = prov->atom_origin.find(data.atom_terms[e.index].id());
          if (it != prov->atom_origin.end()) return it->second.rule_index;
        }
        return Provenance::kNoRule;
      default:
        return Provenance::kNoRule;
    }
  };

  for (std::size_t o = 0; o < data.sat.per_origin.size(); ++o) {
    const OriginCost& cost = data.sat.per_origin[o];
    if (cost_empty(cost)) continue;
    if (o >= data.origins.entries.size()) {
      add_cost(internal_sat, cost);  // defensive: origin beyond the map
      continue;
    }
    const ClauseOriginMap::Entry& e = data.origins.entries[o];
    switch (e.kind) {
      case ClauseOriginMap::Kind::Fact:
        add_cost(fact_sat, cost);
        break;
      case ClauseOriginMap::Kind::Minimize:
        add_cost(minimize_sat, cost);
        break;
      case ClauseOriginMap::Kind::LoopNogood:
        add_cost(loop_sat, cost);
        break;
      case ClauseOriginMap::Kind::OptBound:
        add_cost(opt_sat, cost);
        break;
      case ClauseOriginMap::Kind::Internal:
        add_cost(internal_sat, cost);
        break;
      case ClauseOriginMap::Kind::Rule:
      case ClauseOriginMap::Kind::Choice:
      case ClauseOriginMap::Kind::Completion: {
        std::uint32_t ri = source_rule_of(e);
        if (ri != Provenance::kNoRule && ri < nrules) {
          add_cost(rule_sat[ri], cost);
        } else if (e.kind == ClauseOriginMap::Kind::Completion &&
                   e.index < data.atom_terms.size()) {
          add_cost(pred_sat[Term::sig_str(data.atom_terms[e.index].sig())],
                   cost);
        } else {
          add_cost(internal_sat, cost);
        }
        break;
      }
    }
  }

  // Pass 2: join the per-source-rule SAT and ground costs into directive
  // rows (keyed by Rule::note) and predicate rows (unnoted encoding rules).
  std::map<std::string, Profile::Row> by_note;
  std::map<std::string, Profile::Row> by_pred;
  auto merged_row = [](std::map<std::string, Profile::Row>& table,
                       const std::string& name) -> Profile::Row& {
    Profile::Row& row = table[name];
    row.name = name;
    return row;
  };
  for (std::size_t ri = 0; ri < nrules; ++ri) {
    OriginCost scost = rule_sat[ri];
    Profile::GroundCost gcost;
    if (data.ground && ri < data.ground->per_rule.size()) {
      const GroundProfile::RuleCost& rc = data.ground->per_rule[ri];
      gcost.instantiations = rc.instantiations;
      gcost.join_candidates = rc.join_candidates;
      gcost.emitted = rc.emitted_rules + rc.emitted_choices;
      gcost.seconds = rc.seconds;
    }
    if (cost_empty(scost) && gcost.instantiations == 0 &&
        gcost.join_candidates == 0 && gcost.emitted == 0 &&
        gcost.seconds == 0) {
      continue;
    }
    const Rule& r = source.rules()[ri];
    if (r.note.empty() && (gcost.instantiations != 0 ||
                           gcost.join_candidates != 0 || gcost.seconds != 0)) {
      Profile::Row rule_row;
      rule_row.name = r.str();
      rule_row.loc_known = r.loc.known();
      rule_row.rule_index = static_cast<std::uint32_t>(ri);
      rule_row.line = r.loc.line;
      rule_row.col = r.loc.col;
      rule_row.ground = gcost;
      p.rules.push_back(std::move(rule_row));
    }
    Profile::Row& row = r.note.empty()
                            ? merged_row(by_pred, head_pred(r))
                            : merged_row(by_note, r.note);
    if (!r.note.empty() && !row.loc_known && r.loc.known()) {
      row.loc_known = true;
      row.rule_index = static_cast<std::uint32_t>(ri);
      row.line = r.loc.line;
      row.col = r.loc.col;
    }
    add_cost(row.sat, scost);
    row.ground.instantiations += gcost.instantiations;
    row.ground.join_candidates += gcost.join_candidates;
    row.ground.emitted += gcost.emitted;
    row.ground.seconds += gcost.seconds;
  }
  for (const auto& [pred, cost] : pred_sat) {
    add_cost(merged_row(by_pred, pred).sat, cost);
  }

  for (auto& [name, row] : by_note) p.directives.push_back(std::move(row));
  for (auto& [name, row] : by_pred) p.predicates.push_back(std::move(row));
  // Hottest first.  Rows whose counters tie (say two request rows of one
  // instance each) differ in ground time only by timer noise, so the name,
  // not the clock, breaks ties.
  auto hotter = [](const Profile::Row& a, const Profile::Row& b) {
    if (a.score() != b.score()) return a.score() > b.score();
    return a.name < b.name;
  };
  std::sort(p.directives.begin(), p.directives.end(), hotter);
  std::sort(p.predicates.begin(), p.predicates.end(), hotter);
  std::stable_sort(p.rules.begin(), p.rules.end(),
                   [](const Profile::Row& a, const Profile::Row& b) {
                     return a.ground.seconds > b.ground.seconds;
                   });

  // Buckets.  encoding-internal is the explicit rollup of the predicate
  // table: every unnoted source rule and unresolved completion lands there,
  // so no attributed cost is silently dropped.
  auto bucket = [&](const char* name, const OriginCost& scost,
                    Profile::GroundCost gcost = {}) {
    Profile::Row row;
    row.name = name;
    row.sat = scost;
    row.ground = gcost;
    p.buckets.push_back(std::move(row));
  };
  OriginCost encoding_sat;
  Profile::GroundCost encoding_ground;
  for (const Profile::Row& row : p.predicates) {
    add_cost(encoding_sat, row.sat);
    encoding_ground.instantiations += row.ground.instantiations;
    encoding_ground.join_candidates += row.ground.join_candidates;
    encoding_ground.emitted += row.ground.emitted;
    encoding_ground.seconds += row.ground.seconds;
  }
  bucket("encoding-internal", encoding_sat, encoding_ground);
  bucket("fact", fact_sat);
  Profile::GroundCost min_ground;
  if (data.ground) {
    min_ground.join_candidates = data.ground->minimize_join_candidates;
    min_ground.seconds = data.ground->minimize_seconds;
  }
  bucket("minimize", minimize_sat, min_ground);
  bucket("loop-nogood", loop_sat);
  bucket("opt-bound", opt_sat);
  bucket("internal", internal_sat);
  bucket("unattributed", p.unattributed);

  return p;
}

}  // namespace splice::asp
