#include "src/analysis/audit.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>

#include "src/abi/discovery.hpp"
#include "src/analysis/audit_cache.hpp"
#include "src/asp/analyze.hpp"
#include "src/concretize/concretizer.hpp"
#include "src/support/error.hpp"
#include "src/support/flight.hpp"
#include "src/support/parallel.hpp"
#include "src/support/strings.hpp"
#include "src/support/trace.hpp"

namespace splice::analysis {

using repo::CanSpliceDecl;
using repo::ConditionalSpec;
using repo::DependencyDecl;
using repo::DirectiveLoc;
using repo::PackageDef;
using spec::Spec;
using spec::SpecNode;

std::string_view severity_str(Severity s) {
  switch (s) {
    case Severity::Info: return "info";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

std::string_view check_id_str(CheckId id) {
  switch (id) {
    case CheckId::WhenUnsatisfiableVersion: return "when-unsatisfiable-version";
    case CheckId::WhenUnknownVariant: return "when-unknown-variant";
    case CheckId::WhenInvalidVariantValue: return "when-invalid-variant-value";
    case CheckId::WhenUnknownPackage: return "when-unknown-package";
    case CheckId::TargetUnsatisfiableVersion:
      return "target-unsatisfiable-version";
    case CheckId::TargetUnknownVariant: return "target-unknown-variant";
    case CheckId::TargetInvalidVariantValue:
      return "target-invalid-variant-value";
    case CheckId::TargetUnknownPackage: return "target-unknown-package";
    case CheckId::ContradictoryDeps: return "contradictory-deps";
    case CheckId::DuplicateDirective: return "duplicate-directive";
    case CheckId::UnreachableDep: return "unreachable-dep";
    case CheckId::VirtualNoProvider: return "virtual-no-provider";
    case CheckId::ProviderCycle: return "provider-cycle";
    case CheckId::AmbiguousDefaultProvider:
      return "ambiguous-default-provider";
    case CheckId::SpliceVirtualTarget: return "splice-virtual-target";
    case CheckId::SpliceRefuted: return "splice-refuted";
    case CheckId::SpliceUnexercised: return "splice-unexercised";
    case CheckId::SpliceAsymmetric: return "splice-asymmetric";
    case CheckId::SpliceUndeclared: return "splice-undeclared";
    case CheckId::EncodingError: return "encoding-error";
    case CheckId::EncodingWarning: return "encoding-warning";
  }
  return "?";
}

bool check_id_from_str(std::string_view text, CheckId& out) {
  for (std::uint8_t raw = 0;
       raw <= static_cast<std::uint8_t>(CheckId::EncodingWarning); ++raw) {
    CheckId id = static_cast<CheckId>(raw);
    if (check_id_str(id) == text) {
      out = id;
      return true;
    }
  }
  return false;
}

Severity severity_of(CheckId id) {
  switch (id) {
    case CheckId::WhenUnsatisfiableVersion:
    case CheckId::WhenUnknownVariant:
    case CheckId::WhenInvalidVariantValue:
    case CheckId::WhenUnknownPackage:
    case CheckId::TargetUnsatisfiableVersion:
    case CheckId::TargetUnknownVariant:
    case CheckId::TargetInvalidVariantValue:
    case CheckId::TargetUnknownPackage:
    case CheckId::VirtualNoProvider:
    case CheckId::ProviderCycle:
    case CheckId::SpliceVirtualTarget:
    case CheckId::SpliceRefuted:
    case CheckId::EncodingError:
      return Severity::Error;
    case CheckId::ContradictoryDeps:
    case CheckId::DuplicateDirective:
    case CheckId::UnreachableDep:
    case CheckId::EncodingWarning:
      return Severity::Warning;
    case CheckId::AmbiguousDefaultProvider:
    case CheckId::SpliceUnexercised:
    case CheckId::SpliceAsymmetric:
    case CheckId::SpliceUndeclared:
      return Severity::Info;
  }
  return Severity::Error;
}

std::string Finding::str() const {
  std::string out(severity_str(severity));
  out += ": ";
  out += check_id_str(id);
  out += " [";
  out += package;
  if (!directive.empty()) {
    out += " ";
    out += directive;
  }
  if (loc.known()) out += " @ " + loc.str();
  out += "] " + message;
  return out;
}

json::Value Finding::to_json() const {
  json::Object item;
  item["id"] = std::string(check_id_str(id));
  item["severity"] = std::string(severity_str(severity));
  item["package"] = package;
  item["directive"] = directive;
  item["message"] = message;
  json::Object source;
  source["known"] = loc.known();
  source["index"] = static_cast<std::int64_t>(loc.index);
  if (loc.known()) {
    source["file"] = loc.file;
    source["line"] = static_cast<std::int64_t>(loc.line);
  }
  item["source"] = std::move(source);
  json::Array related_arr;
  for (const std::string& r : related) related_arr.push_back(r);
  item["related"] = std::move(related_arr);
  return json::Value(std::move(item));
}

bool Finding::from_json(const json::Value& v, Finding& out) {
  if (!v.is_object()) return false;
  const json::Value* id = v.find("id");
  const json::Value* package = v.find("package");
  const json::Value* directive = v.find("directive");
  const json::Value* message = v.find("message");
  const json::Value* source = v.find("source");
  if (id == nullptr || !id->is_string() ||
      !check_id_from_str(id->as_string(), out.id)) {
    return false;
  }
  if (package == nullptr || !package->is_string()) return false;
  if (directive == nullptr || !directive->is_string()) return false;
  if (message == nullptr || !message->is_string()) return false;
  // Severity is the fixed per-check policy; re-derive rather than trust the
  // serialized string, so a stale cache can never downgrade an error.
  out.severity = severity_of(out.id);
  out.package = package->as_string();
  out.directive = directive->as_string();
  out.message = message->as_string();
  out.loc = {};
  if (source != nullptr && source->is_object()) {
    const json::Value* index = source->find("index");
    const json::Value* file = source->find("file");
    const json::Value* line = source->find("line");
    if (index != nullptr && index->is_int()) {
      out.loc.index = static_cast<std::uint32_t>(index->as_int());
    }
    if (file != nullptr && file->is_string()) out.loc.file = file->as_string();
    if (line != nullptr && line->is_int()) {
      out.loc.line = static_cast<std::uint32_t>(line->as_int());
    }
  }
  out.related.clear();
  if (const json::Value* related = v.find("related");
      related != nullptr && related->is_array()) {
    for (const json::Value& r : related->as_array()) {
      if (!r.is_string()) return false;
      out.related.push_back(r.as_string());
    }
  }
  return true;
}

std::size_t AuditReport::count(Severity severity) const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.severity == severity; }));
}

std::size_t AuditReport::count(CheckId id) const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.id == id; }));
}

std::string AuditReport::findings_str() const {
  std::string out;
  for (const Finding& f : findings) {
    out += f.str();
    out += '\n';
  }
  return out;
}

std::string AuditReport::summary_str() const {
  std::ostringstream summary;
  summary << "audited " << packages_audited << " package(s), "
          << virtuals_audited << " virtual(s), " << splice_directives
          << " can_splice directive(s), " << binaries_scanned
          << " binar" << (binaries_scanned == 1 ? "y" : "ies") << ", "
          << encoding_programs << " encoding program(s): " << count(Severity::Error)
          << " error(s), " << count(Severity::Warning) << " warning(s), "
          << count(Severity::Info) << " info(s)\n";
  return summary.str();
}

std::string AuditReport::str() const { return findings_str() + summary_str(); }

json::Value AuditReport::to_json() const {
  json::Object doc;
  doc["schema"] = "repo-audit-v1";
  json::Object repo;
  repo["packages"] = packages_audited;
  repo["virtuals"] = virtuals_audited;
  repo["splice_directives"] = splice_directives;
  repo["binaries"] = binaries_scanned;
  repo["encoding_programs"] = encoding_programs;
  doc["repo"] = std::move(repo);
  json::Object summary;
  summary["errors"] = count(Severity::Error);
  summary["warnings"] = count(Severity::Warning);
  summary["infos"] = count(Severity::Info);
  summary["clean"] = !has_errors();
  doc["summary"] = std::move(summary);
  json::Array items;
  for (const Finding& f : findings) items.push_back(f.to_json());
  doc["findings"] = std::move(items);
  return json::Value(std::move(doc));
}

RepoAuditor::RepoAuditor(const repo::Repository& repo, AuditOptions opts)
    : repo_(repo), opts_(opts) {}

void RepoAuditor::add_binary(const Spec& concrete, binary::MockBinary bin) {
  if (!concrete.is_concrete()) {
    throw Error("repo audit: binary spec is not concrete: " + concrete.str());
  }
  binaries_.push_back(AuditBinary{concrete, std::move(bin)});
}

void RepoAuditor::scan_buildcache(const binary::BuildCache& cache) {
  for (const Spec* s : cache.specs()) {
    std::string bytes;
    try {
      bytes = cache.fetch_binary(s->dag_hash());
    } catch (const BinaryError&) {
      continue;  // index-only entry: no symbol surface to audit
    }
    add_binary(*s, binary::MockBinary::parse(bytes));
  }
}

void RepoAuditor::scan_database(const binary::InstalledDatabase& db) {
  for (const binary::InstallRecord* rec : db.all()) {
    auto lib = db.layout().lib_path(rec->spec.root());
    std::ifstream in(lib, std::ios::binary);
    if (!in) continue;  // metadata without artifact
    std::ostringstream ss;
    ss << in.rdbuf();
    add_binary(rec->spec, binary::MockBinary::parse(ss.str()));
  }
}

namespace {

Finding make_finding(CheckId id, std::string package, std::string directive,
                     std::string message, DirectiveLoc loc = {},
                     std::vector<std::string> related = {}) {
  Finding f;
  f.id = id;
  f.severity = severity_of(id);
  f.package = std::move(package);
  f.directive = std::move(directive);
  f.message = std::move(message);
  f.loc = std::move(loc);
  f.related = std::move(related);
  return f;
}

std::string when_str(const std::optional<Spec>& when) {
  return when ? when->str() : std::string("<always>");
}

/// All declared versions of `def` joined for messages.
std::string declared_versions_str(const PackageDef& def) {
  std::string out;
  for (const auto& v : def.versions()) {
    if (!out.empty()) out += ", ";
    out += v.version.str();
  }
  return out;
}

}  // namespace

void RepoAuditor::check_spec(const PackageDef& pkg, const Spec& s,
                             bool when_side, std::string_view directive,
                             const DirectiveLoc& loc,
                             std::vector<Finding>& out) const {
  const char* side = when_side ? "when=" : "target";
  for (const SpecNode& node : s.nodes()) {
    if (repo_.is_virtual(node.name)) continue;  // constraints flow to providers
    const PackageDef* def = repo_.find(node.name);
    if (def == nullptr) {
      out.push_back(make_finding(
          when_side ? CheckId::WhenUnknownPackage : CheckId::TargetUnknownPackage,
          pkg.name(), std::string(directive),
          std::string(side) + " constrains '" + node.name +
              "', which is neither a package nor a virtual in this repo",
          loc, {s.str()}));
      continue;
    }
    // Version-range check: the constraint must admit at least one declared
    // version, else the condition/target can never be satisfied.
    if (!node.versions.any()) {
      bool some = std::any_of(
          def->versions().begin(), def->versions().end(),
          [&](const auto& v) { return node.versions.includes(v.version); });
      if (!some) {
        out.push_back(make_finding(
            when_side ? CheckId::WhenUnsatisfiableVersion
                      : CheckId::TargetUnsatisfiableVersion,
            pkg.name(), std::string(directive),
            std::string(side) + " version '@" + node.versions.str() + "' on '" +
                node.name + "' matches none of its declared versions (" +
                declared_versions_str(*def) + ")",
            loc, {s.str()}));
      }
    }
    // Variant checks: referenced variants must be declared, and values must
    // be inside the allowed set.
    for (const auto& [vname, vval] : node.variants) {
      const repo::VariantDecl* vd = def->find_variant(vname);
      if (vd == nullptr) {
        out.push_back(make_finding(
            when_side ? CheckId::WhenUnknownVariant : CheckId::TargetUnknownVariant,
            pkg.name(), std::string(directive),
            std::string(side) + " references variant '" + vname + "' of '" +
                node.name + "', which declares no such variant",
            loc, {s.str()}));
        continue;
      }
      bool valid = vd->boolean ? (vval == "true" || vval == "false")
                               : std::find(vd->allowed.begin(), vd->allowed.end(),
                                           vval) != vd->allowed.end();
      if (!valid) {
        out.push_back(make_finding(
            when_side ? CheckId::WhenInvalidVariantValue
                      : CheckId::TargetInvalidVariantValue,
            pkg.name(), std::string(directive),
            std::string(side) + " sets " + node.name + " " + vname + "=" + vval +
                ", not an allowed value of that variant",
            loc, {s.str()}));
      }
    }
  }
}

void RepoAuditor::check_package(const PackageDef& pkg,
                                std::vector<Finding>& out) const {
  for (const DependencyDecl& d : pkg.dependencies()) {
    if (d.when) check_spec(pkg, *d.when, true, "depends_on", d.loc, out);
    check_spec(pkg, d.target, false, "depends_on", d.loc, out);
  }
  for (const ConditionalSpec& c : pkg.conflicts_list()) {
    if (c.when) check_spec(pkg, *c.when, true, "conflicts", c.loc, out);
    check_spec(pkg, c.target, false, "conflicts", c.loc, out);
  }
  for (const CanSpliceDecl& s : pkg.splices()) {
    if (s.when) check_spec(pkg, *s.when, true, "can_splice", s.loc, out);
    check_spec(pkg, s.target, false, "can_splice", s.loc, out);
  }
  for (const repo::ProvidesDecl& p : pkg.provided()) {
    if (p.when) check_spec(pkg, *p.when, true, "provides", p.loc, out);
  }

  // Sibling depends_on directives on the same package: overlapping
  // conditions must not impose non-intersecting targets (both would apply
  // and contradict), and identical directives are redundant.
  const auto& deps = pkg.dependencies();
  for (std::size_t i = 0; i < deps.size(); ++i) {
    for (std::size_t j = i + 1; j < deps.size(); ++j) {
      const DependencyDecl& a = deps[i];
      const DependencyDecl& b = deps[j];
      if (a.target.root().name != b.target.root().name) continue;
      if (a.target.str() == b.target.str() &&
          when_str(a.when) == when_str(b.when) && a.type == b.type) {
        out.push_back(make_finding(
            CheckId::DuplicateDirective, pkg.name(), "depends_on",
            "duplicate depends_on('" + b.target.str() + "', when=" +
                when_str(b.when) + "'); the first declaration is at " +
                a.loc.str(),
            b.loc, {a.target.str()}));
        continue;
      }
      bool whens_overlap =
          !a.when || !b.when || a.when->intersects(*b.when);
      if (whens_overlap && !a.target.intersects(b.target)) {
        out.push_back(make_finding(
            CheckId::ContradictoryDeps, pkg.name(), "depends_on",
            "conditions " + when_str(a.when) + " and " + when_str(b.when) +
                " can hold together but impose contradictory constraints '" +
                a.target.str() + "' vs '" + b.target.str() + "' on '" +
                a.target.root().name + "' (the overlap is unsolvable)",
            b.loc, {a.target.str(), b.target.str()}));
      }
    }
  }

  // A conditional dependency whose condition implies an unconditional
  // conflict can never fire: every configuration activating it is forbidden.
  for (const DependencyDecl& d : pkg.dependencies()) {
    if (!d.when) continue;
    for (const ConditionalSpec& c : pkg.conflicts_list()) {
      if (c.when) continue;
      if (d.when->satisfies(c.target)) {
        out.push_back(make_finding(
            CheckId::UnreachableDep, pkg.name(), "depends_on",
            "condition " + d.when->str() + " implies the unconditional "
                "conflict '" + c.target.str() + "' declared at " +
                c.loc.str() + "; this dependency is unreachable",
            d.loc, {d.target.str(), c.target.str()}));
      }
    }
  }
}

void RepoAuditor::check_providers(std::vector<Finding>& out) const {
  for (const std::string& virt : repo_.virtual_names()) {
    std::vector<std::string> providers = repo_.providers(virt);
    if (providers.empty()) {
      std::vector<std::string> dependers;
      for (const std::string& name : repo_.package_names()) {
        for (const DependencyDecl& d : repo_.get(name).dependencies()) {
          if (d.target.root().name == virt) {
            dependers.push_back(name);
            break;
          }
        }
      }
      std::string message =
          "virtual '" + virt + "' has no provider in this repo (" +
          std::to_string(dependers.size()) + " package(s) depend on it)";
      out.push_back(make_finding(CheckId::VirtualNoProvider, virt, "",
                                          std::move(message), {},
                                          std::move(dependers)));
      continue;
    }

    // Provider cycle: a provider reaching its own virtual through the
    // dependency graph (virtuals expand to their providers) would make every
    // concretization of that provider self-referential.
    for (const std::string& provider : providers) {
      std::set<std::string> visited;
      std::vector<std::string> stack{provider};
      bool cycle = false;
      while (!stack.empty() && !cycle) {
        std::string cur = stack.back();
        stack.pop_back();
        if (!visited.insert(cur).second) continue;
        const PackageDef* def = repo_.find(cur);
        if (def == nullptr) continue;
        for (const DependencyDecl& d : def->dependencies()) {
          const std::string& dep = d.target.root().name;
          if (dep == virt) {
            cycle = true;
            break;
          }
          if (repo_.is_virtual(dep)) {
            for (const std::string& p : repo_.providers(dep)) {
              stack.push_back(p);
            }
          } else {
            stack.push_back(dep);
          }
        }
      }
      if (cycle) {
        out.push_back(make_finding(
            CheckId::ProviderCycle, provider, "provides",
            "provider '" + provider + "' of virtual '" + virt +
                "' transitively depends on that same virtual",
            {}, {virt}));
      }
    }

    // Several unconditional providers: legal, but the default is decided by
    // registration order alone — worth knowing when adding providers.
    std::vector<std::string> unconditional;
    for (const std::string& provider : providers) {
      for (const repo::ProvidesDecl& p : repo_.get(provider).provided()) {
        if (p.virtual_name == virt && !p.when) {
          unconditional.push_back(provider);
          break;
        }
      }
    }
    if (unconditional.size() > 1) {
      std::string message =
          "virtual '" + virt + "' has " + std::to_string(unconditional.size()) +
          " unconditional providers; the default is registration order (" +
          unconditional.front() + " first)";
      out.push_back(make_finding(CheckId::AmbiguousDefaultProvider,
                                          virt, "", std::move(message), {},
                                          std::move(unconditional)));
    }
  }

  for (const std::string& name : repo_.package_names()) {
    for (const CanSpliceDecl& s : repo_.get(name).splices()) {
      if (repo_.is_virtual(s.target.root().name)) {
        out.push_back(make_finding(
            CheckId::SpliceVirtualTarget, name, "can_splice",
            "can_splice target '" + s.target.str() +
                "' names a virtual; splice targets must be concrete packages",
            s.loc, {s.target.root().name}));
      }
    }
  }
}

void RepoAuditor::check_splices(const PackageDef& pkg,
                                std::vector<Finding>& out) const {
  for (const CanSpliceDecl& s : pkg.splices()) {
    const std::string& target_name = s.target.root().name;
    if (repo_.is_virtual(target_name) || !repo_.contains(target_name)) {
      continue;  // already an error from the provider/constraint groups
    }
    std::vector<const AuditBinary*> repl;
    std::vector<const AuditBinary*> tgt;
    for (const AuditBinary& e : binaries_) {
      if (e.spec.root().name == pkg.name() &&
          (!s.when || e.spec.satisfies(*s.when))) {
        repl.push_back(&e);
      }
      if (e.spec.root().name == target_name && e.spec.satisfies(s.target)) {
        tgt.push_back(&e);
      }
    }
    std::string claim =
        "can_splice('" + s.target.str() + "', when=" + when_str(s.when) + ")";
    if (repl.empty() || tgt.empty()) {
      std::string missing =
          repl.empty() && tgt.empty()
              ? "no binary on either side"
              : repl.empty() ? "no binary of '" + pkg.name() + "' satisfies when="
                             : "no binary satisfies the target";
      out.push_back(make_finding(
          CheckId::SpliceUnexercised, pkg.name(), "can_splice",
          claim + " has no installed/cached candidate pair to exercise it (" +
              missing + " among " + std::to_string(binaries_.size()) +
              " scanned)",
          s.loc, {s.target.str()}));
      continue;
    }

    // Cross-check the claim against every candidate pair's symbol surfaces.
    std::size_t pairs = 0;
    std::size_t refuting = 0;
    bool reciprocal_holds = true;
    std::vector<std::string> sample_missing;
    std::string sample_pair;
    for (const AuditBinary* r : repl) {
      for (const AuditBinary* t : tgt) {
        ++pairs;
        abi::AbiComparison cmp = abi::compare_exports(r->bin, t->bin);
        if (!cmp.a_covers_b()) {
          ++refuting;
          if (sample_missing.empty()) {
            for (const std::string& sym : cmp.only_in_b) {
              if (sample_missing.size() >= opts_.max_refuted_symbols) break;
              sample_missing.push_back(sym);
            }
            sample_pair = r->spec.root().name + "@" +
                          r->spec.root().concrete_version()->str() + " -> " +
                          t->spec.root().name + "@" +
                          t->spec.root().concrete_version()->str();
          }
        }
        if (!cmp.b_covers_a()) reciprocal_holds = false;
      }
    }
    if (refuting > 0) {
      out.push_back(make_finding(
          CheckId::SpliceRefuted, pkg.name(), "can_splice",
          claim + " is refuted by the binaries: " + std::to_string(refuting) +
              " of " + std::to_string(pairs) +
              " candidate pair(s) lack exported symbols the target provides "
              "(e.g. " + sample_pair + " missing: " +
              join(sample_missing, ", ") + ")",
          s.loc, sample_missing));
      continue;
    }

    // Verified.  If the surfaces also cover the other direction and the
    // target package declares no reciprocal claim, surface the asymmetry.
    if (reciprocal_holds) {
      bool reciprocal_declared = false;
      for (const CanSpliceDecl& back : repo_.get(target_name).splices()) {
        if (back.target.root().name == pkg.name()) {
          reciprocal_declared = true;
          break;
        }
      }
      if (!reciprocal_declared) {
        out.push_back(make_finding(
            CheckId::SpliceAsymmetric, pkg.name(), "can_splice",
            claim + " verified over " + std::to_string(pairs) +
                " pair(s); surfaces cover both directions but '" + target_name +
                "' declares no reciprocal can_splice for '" + pkg.name() + "'",
            s.loc, {target_name}));
      }
    }
  }
}

void RepoAuditor::check_suggestions(std::vector<Finding>& out) const {
  abi::AbiDiscovery discovery;
  for (const AuditBinary& e : binaries_) discovery.add_binary(e.spec, e.bin);
  for (const abi::SpliceSuggestion& sug : discovery.suggest()) {
    Spec target = Spec::parse(sug.target);
    const std::string& target_name = target.root().name;
    if (!opts_.suggest_same_package && sug.replacement_package == target_name) {
      continue;
    }
    const PackageDef* def = repo_.find(sug.replacement_package);
    if (def == nullptr) continue;  // binary of a package outside this repo
    bool declared = false;
    for (const CanSpliceDecl& s : def->splices()) {
      if (s.target.root().name == target_name && s.target.intersects(target)) {
        declared = true;
        break;
      }
    }
    if (declared) continue;
    out.push_back(make_finding(
        CheckId::SpliceUndeclared, sug.replacement_package, "can_splice",
        "abi discovery suggests " + sug.directive_text() + " — " +
            sug.rationale + " — but no directive declares it",
        {}, {sug.target}));
  }
}

std::size_t RepoAuditor::check_encoding(const std::string& package,
                                        std::vector<Finding>& out) const {
  // One Concretizer per task: compile state is not shared across the worker
  // threads the parallel audit fans these tasks out to.
  concretize::ConcretizerOptions copts;
  copts.encoding = concretize::ReuseEncoding::Indirect;
  copts.enable_splicing = true;
  concretize::Concretizer conc(repo_, copts);
  asp::AnalyzeOptions lint = concretize::Concretizer::lint_options();
  asp::AnalysisReport rep;
  try {
    asp::Program program =
        conc.compile_program({concretize::Request(Spec::make(package))});
    rep = asp::analyze(program, lint);
  } catch (const Error& e) {
    out.push_back(make_finding(
        CheckId::EncodingError, package, "",
        std::string("compiling the concretizer program failed: ") + e.what()));
    return 0;
  }
  for (const asp::Diagnostic& d : rep.diagnostics) {
    if (d.severity == asp::DiagSeverity::Info) continue;  // expected cycles
    out.push_back(make_finding(
        d.severity == asp::DiagSeverity::Error ? CheckId::EncodingError
                                               : CheckId::EncodingWarning,
        package, "", "compiled program for '" + package + "': " + d.str(), {},
        {d.predicate}));
  }
  return 1;
}

/// One schedulable unit of an audit run: a task id ("group/package", or
/// "group//name" for repo-level tasks), the content key it caches under
/// (empty when no cache is in play), and the work itself.
struct RepoAuditor::Task {
  std::string id;
  std::string key;
  std::function<std::size_t(std::vector<Finding>&)> fn;  ///< returns programs
};

void RepoAuditor::run_tasks(std::string_view group, std::vector<Task>& tasks,
                            AuditCache* cache,
                            std::set<std::string>& live_tasks,
                            AuditReport& out) const {
  // One flight request per group, so a batch audit can attribute wall time
  // per group after the fact.
  flight::RequestScope request("audit " + std::string(group));
  flight::PhaseScope phase(flight::Phase::Audit, group, "audit");
  struct Slot {
    std::vector<Finding> findings;
    std::size_t programs = 0;
    bool cached = false;
  };
  std::vector<Slot> slots(tasks.size());

  // Resolve cache hits up front; collect the remainder for the pool.
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const Task& t = tasks[i];
    live_tasks.insert(t.id);
    if (cache != nullptr) {
      if (const CacheEntry* e = cache->lookup(t.id, t.key)) {
        slots[i].findings = e->findings;
        slots[i].programs = e->programs;
        slots[i].cached = true;
        ++out.cache_hits;
        continue;
      }
      if (cache->contains(t.id)) {
        ++out.cache_invalidated;
      } else {
        ++out.cache_misses;
      }
    }
    pending.push_back(i);
  }

  // jobs == 0 auto-detects inside parallel_workers/parallel_for_each.
  std::size_t jobs = opts_.jobs;
  out.workers_used =
      std::max(out.workers_used, parallel_workers(pending.size(), jobs));
  parallel_for_each(pending.size(), jobs, [&](std::size_t k) {
    Slot& slot = slots[pending[k]];
    slot.programs = tasks[pending[k]].fn(slot.findings);
  });

  // Deterministic merge: strictly in task-declaration order, which is the
  // sequential auditor's iteration order — every job count and every
  // cold/warm split yields a byte-identical findings list.
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    Slot& slot = slots[i];
    if (!slot.cached) {
      out.rechecked_tasks.push_back(tasks[i].id);
      if (cache != nullptr) {
        cache->store(tasks[i].id,
                     CacheEntry{tasks[i].key, slot.findings, slot.programs});
      }
    }
    out.encoding_programs += slot.programs;
    for (Finding& f : slot.findings) out.findings.push_back(std::move(f));
  }
}

AuditReport RepoAuditor::run(AuditCache* cache) const {
  AuditReport out;
  out.packages_audited = repo_.size();
  out.virtuals_audited = repo_.virtual_names().size();
  out.binaries_scanned = binaries_.size();
  for (const std::string& name : repo_.package_names()) {
    out.splice_directives += repo_.get(name).splices().size();
  }

  std::optional<AuditFingerprints> fp;
  if (cache != nullptr) fp.emplace(repo_, binaries_, opts_);
  std::set<std::string> live_tasks;

  if (opts_.constraint_checks) {
    std::vector<Task> tasks;
    for (const std::string& name : repo_.package_names()) {
      tasks.push_back(Task{
          "constraint/" + name, fp ? fp->constraint_key(name) : "",
          [this, &name](std::vector<Finding>& findings) {
            check_package(repo_.get(name), findings);
            return std::size_t{0};
          }});
    }
    run_tasks("constraint-checks", tasks, cache, live_tasks, out);
  }
  if (opts_.provider_checks) {
    std::vector<Task> tasks;
    tasks.push_back(Task{"provider//graph",
                         fp ? fp->provider_graph_key() : "",
                         [this](std::vector<Finding>& findings) {
                           check_providers(findings);
                           return std::size_t{0};
                         }});
    run_tasks("provider-checks", tasks, cache, live_tasks, out);
  }
  if (opts_.splice_checks && !binaries_.empty()) {
    std::vector<Task> tasks;
    for (const std::string& name : repo_.package_names()) {
      tasks.push_back(Task{
          "splice/" + name, fp ? fp->splice_key(name) : "",
          [this, &name](std::vector<Finding>& findings) {
            check_splices(repo_.get(name), findings);
            return std::size_t{0};
          }});
    }
    tasks.push_back(Task{"splice//suggestions",
                         fp ? fp->suggestions_key() : "",
                         [this](std::vector<Finding>& findings) {
                           check_suggestions(findings);
                           return std::size_t{0};
                         }});
    run_tasks("splice-safety", tasks, cache, live_tasks, out);
  }
  // The encoding cross-check only means something for a repo the
  // repo-level checks accept: compiled facts for a broken repo would
  // re-report the same defects as opaque compiler failures.
  if (opts_.encoding_checks && !out.has_errors()) {
    std::vector<Task> tasks;
    for (const std::string& name : repo_.package_names()) {
      tasks.push_back(Task{"encoding/" + name,
                           fp ? fp->encoding_key(name) : "",
                           [this, &name](std::vector<Finding>& findings) {
                             return check_encoding(name, findings);
                           }});
    }
    run_tasks("encoding-cross-check", tasks, cache, live_tasks, out);
  }

  if (cache != nullptr) {
    // Tasks that no longer exist (deleted packages, disabled groups with
    // their checks now unreachable) must not survive as immortal entries.
    // The encoding group is special: when it was *gated off* by errors its
    // entries stay — they will be valid again once the repo is clean.
    if (opts_.encoding_checks && out.has_errors()) {
      for (const std::string& name : repo_.package_names()) {
        live_tasks.insert("encoding/" + name);
      }
    }
    cache->retain(live_tasks);

    trace::MetricsRegistry& metrics = trace::Tracer::global().metrics();
    metrics.add("audit.cache/hit", static_cast<std::int64_t>(out.cache_hits));
    metrics.add("audit.cache/miss",
                static_cast<std::int64_t>(out.cache_misses));
    metrics.add("audit.cache/invalidated",
                static_cast<std::int64_t>(out.cache_invalidated));
  }
  trace::Tracer::global().metrics().set_gauge(
      "audit.parallel/workers", static_cast<double>(out.workers_used));
  return out;
}

}  // namespace splice::analysis
