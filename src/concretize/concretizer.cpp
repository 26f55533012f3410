#include "src/concretize/concretizer.hpp"

#include <algorithm>
#include <mutex>
#include <optional>
#include <set>
#include <string_view>
#include <tuple>
#include <utility>

#include "src/concretize/reach.hpp"
#include "src/support/error.hpp"
#include "src/support/flight.hpp"
#include "src/support/strings.hpp"
#include "src/support/trace.hpp"

namespace splice::concretize {

using asp::CmpOp;
using asp::Literal;
using asp::Program;
using asp::Rule;
using asp::Term;
using repo::PackageDef;
using spec::DepType;
using spec::Spec;
using spec::SpecNode;

namespace {

// ---- term helpers ---------------------------------------------------------

Term str_(std::string_view s) { return Term::str(s); }
Term node_(std::string_view p) { return Term::fun("node", {str_(p)}); }

Term attr_(std::string_view a, std::initializer_list<Term> args) {
  std::vector<Term> all{str_(a)};
  all.insert(all.end(), args.begin(), args.end());
  return Term::fun("attr", all);
}

/// The static concretization logic (paper §5.1): choices for versions,
/// variants, os/target, virtual providers, and reuse; consistency
/// constraints; reused-spec imposition; optimization objectives.
constexpr std::string_view kBaseLogic = R"(
% ---- node existence -------------------------------------------------------
% Any known package may appear as a node (choice, externally supported);
% non-root nodes must be depended upon by another node.
{ attr("node", node(P)) } :- pkg_fact(P, package).
node_used(P) :- attr("depends_on", node(Q), node(P), _T), attr("node", node(Q)).
:- attr("node", node(P)), not node_used(P), not attr("root", node(P)).
:- attr("root", node(P)), not attr("node", node(P)).
:- attr("depends_on", node(P), node(D), _T), attr("node", node(P)), not attr("node", node(D)).

% ---- versions --------------------------------------------------------------
1 { attr("version", node(P), V) : pkg_fact(P, version_declared(V, _W)) } 1 :- attr("node", node(P)).

% ---- variants ---------------------------------------------------------------
1 { attr("variant", node(P), Var, Val) : pkg_fact(P, variant_value(Var, Val)) } 1 :- attr("node", node(P)), pkg_fact(P, variant(Var)).
% Variants are the one imposed value that stays derived (see reuse below), so
% they keep a pairwise guard against a second, imposed value.
:- attr("variant", node(P), Var, V1), attr("variant", node(P), Var, V2), V1 < V2.
variant_not_default(P, Var) :- attr("variant", node(P), Var, Val), pkg_fact(P, variant(Var)), not pkg_fact(P, variant_default(Var, Val)).

% ---- os / target: one value per node, uniform across the DAG ---------------
% Uniformity is checked on the set of values in use, linear in the nodes.
1 { attr("node_os", node(P), O) : allowed_os(O) } 1 :- attr("node", node(P)).
1 { attr("node_target", node(P), T) : allowed_target(T) } 1 :- attr("node", node(P)).
dag_os(O) :- attr("node_os", node(_P), O).
dag_target(T) :- attr("node_target", node(_P), T).
:- dag_os(O1), dag_os(O2), O1 < O2.
:- dag_target(T1), dag_target(T2), T1 < T2.

% ---- virtual dependencies ---------------------------------------------------
virtual_used(V) :- attr("virtual_dep", node(P), V), attr("node", node(P)).
1 { virtual_provider(V, R) : provides_now(R, V) } 1 :- virtual_used(V).
attr("depends_on", node(P), node(R), "link") :- attr("virtual_dep", node(P), V), attr("node", node(P)), virtual_provider(V, R).
% One provider per virtual in any DAG: a present provider of a used virtual
% must be THE chosen provider (no mpich and mpiabi side by side).
:- attr("node", node(P)), provides_now(P, V), virtual_used(V), not virtual_provider(V, P).

% ---- reuse (paper §5.1.2) ---------------------------------------------------
% Imposition constrains values the bounded choices above already pick; it
% never derives a second value, so "one value per node" needs no pairwise
% constraint.  Every imposed value lies in its choice's domain: imposed child
% hashes are installed_hash facts (every sub-DAG node is registered, and the
% reachability slice is closed over sub-DAGs), a hash imposition always comes
% with a depends_on imposition that makes the child a node, and allowed_os /
% allowed_target span every cache entry.  A cached spec whose version its
% package no longer declares cannot be reused.
{ attr("hash", node(P), H) : installed_hash(P, H) } 1 :- attr("node", node(P)).
impose(H, node(P)) :- attr("hash", node(P), H), attr("node", node(P)).
reused(P) :- attr("hash", node(P), _H), attr("node", node(P)).
build(P) :- attr("node", node(P)), not reused(P).

:- impose(H, node(P)), imposed_constraint(H, "version", P, V), not attr("version", node(P), V).
:- impose(H, node(P)), imposed_constraint(H, "node_os", P, O), not attr("node_os", node(P), O).
:- impose(H, node(P)), imposed_constraint(H, "node_target", P, T), not attr("node_target", node(P), T).
:- impose(H, node(_P)), imposed_constraint(H, "hash", D, DH), not attr("hash", node(D), DH).
attr("depends_on", node(P), node(D), "link") :- impose(H, node(P)), imposed_constraint(H, "depends_on", P, D).
% Variants stay derived: a cached spec may carry a variant its package no
% longer declares, which has no choice rule to constrain, and reusing such a
% spec must keep working.
attr("variant", node(P), Var, Val) :- impose(H, node(P)), imposed_constraint(H, "variant", P, Var, Val).

% ---- objectives --------------------------------------------------------------
% Prefer the host platform: non-default os/target choices are penalized
% above everything else (a cache entry for another machine never wins).
#minimize { 1@120, P, O : attr("node_os", node(P), O), not default_os(O) }.
#minimize { 1@120, P, T : attr("node_target", node(P), T), not default_target(T) }.
% Default variant values rank above build count: otherwise the solver would
% flip optional features off just to drop dependency builds, collapsing the
% DAG (our caches are concretized from the same defaults, so this does not
% inhibit reuse).
#minimize { 1@110, P, Var : variant_not_default(P, Var) }.
% Minimize builds (weight 100 per the paper).
#minimize { 100@100, P : build(P) }.
% Then prefer newer versions.
#minimize { W@20, P : attr("version", node(P), V), pkg_fact(P, version_declared(V, W)) }.
)";

/// Recovery of imposed_constraint from the indirect hash_attr encoding
/// (paper Figure 3b).  `spliced_away` has no deriving rule unless the
/// splicing fragment is loaded, in which case the negation becomes live.
constexpr std::string_view kIndirectRecovery = R"(
imposed_constraint(H, "version", P, V) :- hash_attr(H, "version", P, V).
imposed_constraint(H, "variant", P, Var, Val) :- hash_attr(H, "variant", P, Var, Val).
imposed_constraint(H, "node_os", P, O) :- hash_attr(H, "node_os", P, O).
imposed_constraint(H, "node_target", P, T) :- hash_attr(H, "node_target", P, T).
imposed_constraint(H, "depends_on", P, D) :- hash_attr(H, "depends_on", P, D), hash_attr(H, "hash", D, _DH), not spliced_away(H, D).
imposed_constraint(H, "hash", D, DH) :- hash_attr(H, "hash", D, DH), not spliced_away(H, D).
)";

/// Automatic splice synthesis (paper Figure 4b).  A reused parent H whose
/// dependency (D, DH) has a can_splice-compatible solution node R may drop
/// the original dependency (spliced_away) and must then splice exactly one
/// compatible replacement in.
constexpr std::string_view kSpliceLogic = R"(
splice_candidate(H, D, R) :- hash_attr(H, "hash", D, DH), can_splice(node(R), D, DH).
spliceable(H, D) :- splice_candidate(H, D, _R).
imposed_any(H) :- impose(H, node(_P)).
{ spliced_away(H, D) } :- spliceable(H, D), imposed_any(H).
1 { splice_with(H, D, R) : splice_candidate(H, D, R) } 1 :- spliced_away(H, D).
attr("depends_on", node(P), node(R), "link") :- impose(H, node(P)), splice_with(H, _D, R).
attr("splice", node(P), D, R) :- impose(H, node(P)), splice_with(H, D, R).
% Mild penalty so plain reuse beats an equivalent spliced solution.
#minimize { 1@50, H, D : spliced_away(H, D) }.
)";

/// Parse a static logic fragment once per process and hand out the parsed
/// Program for extend()-ing into compiled programs (the fragments are
/// compile-time constants, keyed by their storage address).  Concretizers
/// may compile on concurrent audit workers, so the lazy parse is serialized;
/// the entry is fully built before any caller's reference escapes the lock,
/// and map node references survive later insertions.
const Program& cached_fragment(std::string_view text) {
  static std::mutex mu;
  static std::map<const void*, Program> cache;
  std::scoped_lock lock(mu);
  auto [it, inserted] = cache.try_emplace(text.data());
  if (inserted) asp::parse_into(it->second, text);
  return it->second;
}

}  // namespace

// ---- Compiler --------------------------------------------------------------

/// Request-independent compile state: the frozen grounding of the base
/// program plus the compile state a request program is compiled against.
/// A request compiles only its own facts and rules, and grounding resumes
/// the base from the request's delta (DESIGN.md §4.1).  The base program
/// itself is not kept: its grounding holds all a request needs.
struct Concretizer::CompileCache {
  std::shared_ptr<const asp::GroundBase> ground;
  std::size_t base_rules = 0;  // rules of the base program
  std::map<std::string, std::set<std::string>> candidates;
  std::map<std::string,
           std::pair<std::string, std::pair<std::string, spec::VersionConstraint>>>
      ranges;
  std::set<std::string> oses;
  std::set<std::string> targets;
  std::size_t fresh = 0;
};

/// Builds the ASP program in two parts: the request-independent base
/// (package facts, specialized per-directive rules, reusable-spec facts,
/// platform facts and the static logic above), compiled once per slice into
/// a CompileCache, and one request program per request set (its root
/// facts, constraints and whatever ranges or platform values only it adds).
class Concretizer::Compiler {
 public:
  /// Request mode: compile requests against `cache`.
  Compiler(const repo::Repository& repo, const ConcretizerOptions& opts,
           const std::map<std::string, Spec>& reusable,
           const Concretizer::CompileCache& cache)
      : repo_(repo), opts_(opts), reusable_(reusable),
        candidates_(cache.candidates), ranges_(cache.ranges),
        oses_(cache.oses), targets_(cache.targets), fresh_(cache.fresh) {}

  /// Base mode: compile_base() next.  With `keep`, only the reusable
  /// entries whose hash is in the set contribute facts (the
  /// reachability-pruned slice, DESIGN.md §15); the os/target choice space
  /// still reflects every entry.
  Compiler(const repo::Repository& repo, const ConcretizerOptions& opts,
           const std::map<std::string, Spec>& reusable,
           const std::set<std::string>* keep)
      : repo_(repo), opts_(opts), reusable_(reusable), keep_(keep) {
    collect_version_candidates();
  }

  /// The base program: package and reusable facts and rules, the platform
  /// facts, the range facts of package directives and the static logic.
  /// `request_at` receives the rule index a request's rules take in
  /// one-shot order (after the package and reusable passes).
  Program compile_base(std::size_t* request_at) {
    if (opts_.enable_splicing && opts_.encoding != ReuseEncoding::Indirect) {
      throw Error("splicing requires the indirect reuse encoding");
    }
    compile_packages();
    compile_reusable();
    *request_at = program_.size();
    compile_platform();
    emit_range_facts();
    program_.extend(cached_fragment(kBaseLogic));
    if (opts_.encoding == ReuseEncoding::Indirect) {
      program_.extend(cached_fragment(kIndirectRecovery));
    }
    if (opts_.enable_splicing) program_.extend(cached_fragment(kSpliceLogic));
    return std::exchange(program_, Program{});
  }

  /// Compile and ground a base program and snapshot the result for reuse
  /// across concretizations.
  static std::shared_ptr<const Concretizer::CompileCache> build_cache(
      const repo::Repository& repo, const ConcretizerOptions& opts,
      const std::map<std::string, Spec>& reusable,
      const std::set<std::string>* keep) {
    Compiler c(repo, opts, reusable, keep);
    std::size_t request_at = 0;
    Program base = c.compile_base(&request_at);
    auto cache = std::make_shared<Concretizer::CompileCache>();
    cache->ground = asp::ground_base(base, {}, request_at);
    cache->base_rules = base.rules().size();
    cache->candidates = std::move(c.candidates_);
    cache->ranges = std::move(c.ranges_);
    cache->oses = std::move(c.oses_);
    cache->targets = std::move(c.targets_);
    cache->fresh = c.fresh_;
    return cache;
  }

  /// The request program: everything `requests` add to the cache's base.
  Program compile(const std::vector<Request>& requests) {
    for (const Request& request : requests) compile_request(request);
    emit_range_facts();
    return std::move(program_);
  }

 private:
  // -- version-range bookkeeping -------------------------------------------

  void collect_version_candidates() {
    for (const std::string& name : repo_.package_names()) {
      for (const auto& v : repo_.get(name).versions()) {
        candidates_[name].insert(v.version.str());
      }
    }
    // Only kept entries can impose a version (or back a can_splice body), so
    // only their versions need range_allows coverage.
    for (const auto& [hash, s] : reusable_) {
      if (keep_ != nullptr && keep_->count(hash) == 0) continue;
      for (const SpecNode& n : s.nodes()) {
        if (auto v = n.concrete_version()) candidates_[n.name].insert(v->str());
      }
    }
  }

  /// Register a version constraint against a package; returns the range id.
  std::string range_id(const std::string& package,
                       const spec::VersionConstraint& vc) {
    std::string key = package + "|" + vc.str();
    auto it = ranges_.find(key);
    if (it != ranges_.end()) return it->second.first;
    std::string rid = "r" + std::to_string(ranges_.size());
    it = ranges_.emplace(key, std::make_pair(rid, std::make_pair(package, vc)))
             .first;
    new_ranges_.push_back(&*it);
    return rid;
  }

  /// range_allows facts of the ranges registered since the last call, in
  /// key order.
  void emit_range_facts() {
    std::sort(new_ranges_.begin(), new_ranges_.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    for (const auto* range : new_ranges_) {
      const auto& [rid, pkg_vc] = range->second;
      const auto& [package, vc] = pkg_vc;
      for (const std::string& v : candidates_[package]) {
        if (vc.includes(spec::Version::parse(v))) {
          program_.add_fact(
              Term::fun("range_allows", {str_(rid), str_(v)}));
        }
      }
    }
    new_ranges_.clear();
  }

  // -- when-spec compilation --------------------------------------------

  /// Append body literals requiring the solution node of `pkg` to satisfy
  /// the single-node constraints of `when` (version/variants/os/target).
  void when_body(const std::string& pkg, const std::optional<Spec>& when,
                 std::vector<Literal>& body) {
    body.push_back({attr_("node", {node_(pkg)}), true});
    if (!when) return;
    const SpecNode& w = when->root();
    if (w.name != pkg) {
      throw PackageError("when spec '" + when->str() +
                         "' does not constrain package " + pkg);
    }
    if (when->nodes().size() > 1) {
      throw PackageError("when specs with dependencies are not supported: " +
                         when->str());
    }
    if (!w.versions.any()) {
      std::string rid = range_id(pkg, w.versions);
      Term v = Term::var("WhenV" + std::to_string(fresh_++));
      body.push_back({attr_("version", {node_(pkg), v}), true});
      body.push_back({Term::fun("range_allows", {str_(rid), v}), true});
    }
    for (const auto& [key, val] : w.variants) {
      body.push_back({attr_("variant", {node_(pkg), str_(key), str_(val)}), true});
    }
    if (w.os) body.push_back({attr_("node_os", {node_(pkg), str_(*w.os)}), true});
    if (w.target) {
      body.push_back({attr_("node_target", {node_(pkg), str_(*w.target)}), true});
    }
  }

  /// Add `head :- body.`; `note` names the directive the rule encodes so
  /// explanations (src/concretize/explain.hpp) can speak the user's language.
  void add_rule(Term head, std::vector<Literal> body, std::string note = {}) {
    Rule r;
    r.head.kind = asp::Head::Kind::Atom;
    r.head.atom = head;
    r.body = std::move(body);
    r.note = std::move(note);
    program_.add_rule(std::move(r));
  }

  void add_constraint(std::vector<Literal> body, std::string note = {}) {
    Rule r;
    r.body = std::move(body);
    r.note = std::move(note);
    program_.add_rule(std::move(r));
  }

  std::string fresh_condition() { return "c" + std::to_string(fresh_++); }

  // -- package compilation -------------------------------------------------

  void compile_packages() {
    for (const std::string& name : repo_.package_names()) {
      const PackageDef& pkg = repo_.get(name);
      Term p = str_(name);
      program_.add_fact(Term::fun("pkg_fact", {p, Term::sym("package")}));

      // Versions, weighted by declaration (preference) order.
      std::int64_t weight = 0;
      for (const auto& v : pkg.versions()) {
        program_.add_fact(Term::fun(
            "pkg_fact",
            {p, Term::fun("version_declared",
                          {str_(v.version.str()), Term::integer(weight)})}));
        ++weight;
      }

      // Variants.
      for (const auto& var : pkg.variants()) {
        program_.add_fact(
            Term::fun("pkg_fact", {p, Term::fun("variant", {str_(var.name)})}));
        program_.add_fact(Term::fun(
            "pkg_fact", {p, Term::fun("variant_default",
                                      {str_(var.name), str_(var.default_value)})}));
        std::vector<std::string> values =
            var.boolean ? std::vector<std::string>{"true", "false"} : var.allowed;
        for (const std::string& val : values) {
          program_.add_fact(Term::fun(
              "pkg_fact",
              {p, Term::fun("variant_value", {str_(var.name), str_(val)})}));
        }
      }

      // Provides: provides_now(P, V) :- <when conditions>.
      for (const auto& prov : pkg.provided()) {
        std::vector<Literal> body;
        when_body(name, prov.when, body);
        add_rule(Term::fun("provides_now", {p, str_(prov.virtual_name)}),
                 std::move(body));
      }

      for (const auto& dep : pkg.dependencies()) compile_dependency(pkg, dep);
      for (const auto& c : pkg.conflicts_list()) compile_conflict(pkg, c);
      if (opts_.enable_splicing) {
        for (const auto& s : pkg.splices()) compile_can_splice(pkg, s);
      }
    }
  }

  void compile_dependency(const PackageDef& pkg, const repo::DependencyDecl& dep) {
    const std::string& dep_name = dep.target.root().name;
    std::string cid = fresh_condition();
    Term cond = Term::fun("condition_holds", {str_(cid)});
    {
      std::vector<Literal> body;
      when_body(pkg.name(), dep.when, body);
      add_rule(cond, std::move(body));
    }

    if (repo_.is_virtual(dep_name)) {
      if (!dep.target.root().versions.any() || !dep.target.root().variants.empty()) {
        throw PackageError(pkg.name() + ": constraints on virtual dependency '" +
                           dep_name + "' are not supported");
      }
      add_rule(attr_("virtual_dep", {node_(pkg.name()), str_(dep_name)}),
               {{cond, true}});
      return;
    }

    // Impose the edge.  Build-dependency edges only apply to nodes being
    // built: reused binaries do not need their build tools installed.
    if (dep.type == DepType::Link) {
      add_rule(attr_("depends_on",
                     {node_(pkg.name()), node_(dep_name), str_("link")}),
               {{cond, true}});
    } else {
      add_rule(attr_("depends_on",
                     {node_(pkg.name()), node_(dep_name), str_("build")}),
               {{cond, true}, {Term::fun("build", {str_(pkg.name())}), true}});
    }

    // Impose target constraints on the dependency node.
    const SpecNode& target = dep.target.root();
    if (dep.target.nodes().size() > 1) {
      throw PackageError(pkg.name() + ": dependency targets with sub-dependencies"
                         " are not supported: " + dep.target.str());
    }
    if (!target.versions.any()) {
      std::string rid = range_id(dep_name, target.versions);
      Term ok = Term::fun("dep_version_ok", {str_(cid)});
      Term v = Term::var("DepV");
      add_rule(ok, {{attr_("version", {node_(dep_name), v}), true},
                    {Term::fun("range_allows", {str_(rid), v}), true}});
      add_constraint({{cond, true},
                      {Term::fun("build", {str_(pkg.name())}), true},
                      {ok, false}},
                     pkg.name() + " depends_on " + dep.target.str() + ": " +
                         dep_name + " version must satisfy " +
                         target.versions.str());
      // For reused parents the cached dependency already satisfied the
      // directive when it was concretized; re-imposing it would conflict
      // with splicing in an ABI-compatible replacement of a different
      // version, so version constraints are only enforced on built parents
      // (the can_splice declaration vouches for the replacement).
    }
    for (const auto& [key, val] : target.variants) {
      add_constraint(
          {{cond, true},
           {Term::fun("build", {str_(pkg.name())}), true},
           {attr_("variant", {node_(dep_name), str_(key), str_(val)}), false}},
          pkg.name() + " depends_on " + dep.target.str() + ": " + dep_name +
              " variant " + key + " must be " + val);
    }
  }

  void compile_conflict(const PackageDef& pkg, const repo::ConditionalSpec& c) {
    std::vector<Literal> body;
    when_body(pkg.name(), c.when, body);
    // Conflict target: the offending configuration being present.
    const SpecNode& t = c.target.root();
    std::optional<Spec> target_as_when;
    {
      Spec w = Spec::make(t.name);
      w.root() = t;
      w.root().deps.clear();
      target_as_when = std::move(w);
    }
    when_body(t.name, target_as_when, body);
    std::string note = pkg.name() + ": conflicts with " + c.target.str();
    if (c.when) note += " when " + c.when->str();
    add_constraint(std::move(body), std::move(note));
  }

  /// Figure 4a: one rule per can_splice directive.
  void compile_can_splice(const PackageDef& pkg, const repo::CanSpliceDecl& s) {
    const std::string& target_name = s.target.root().name;
    std::vector<Literal> body;
    when_body(pkg.name(), s.when, body);

    Term hash = Term::var("TargetHash");
    body.push_back({Term::fun("installed_hash", {str_(target_name), hash}), true});
    const SpecNode& t = s.target.root();
    if (!t.versions.any()) {
      std::string rid = range_id(target_name, t.versions);
      Term v = Term::var("TargetV");
      body.push_back({Term::fun("hash_attr", {hash, str_("version"),
                                              str_(target_name), v}),
                      true});
      body.push_back({Term::fun("range_allows", {str_(rid), v}), true});
    }
    for (const auto& [key, val] : t.variants) {
      body.push_back({Term::fun("hash_attr", {hash, str_("variant"),
                                              str_(target_name), str_(key),
                                              str_(val)}),
                      true});
    }
    std::string note = pkg.name() + ": can_splice " + s.target.str();
    if (s.when) note += " when " + s.when->str();
    add_rule(Term::fun("can_splice",
                       {node_(pkg.name()), str_(target_name), hash}),
             std::move(body), std::move(note));
  }

  // -- reusable spec compilation (paper §5.1.2 / §5.3) -----------------------

  void compile_reusable() {
    const char* pred = opts_.encoding == ReuseEncoding::Indirect
                           ? "hash_attr"
                           : "imposed_constraint";
    for (const auto& [hash, s] : reusable_) {
      const SpecNode& n = s.root();
      // os/target choice space always derives from the FULL reusable map:
      // pruning must not change the allowed_os/allowed_target facts, or the
      // pruned and unpruned programs could disagree on satisfiability in
      // repos whose when-specs pin an os only caches mention (DESIGN.md §15).
      oses_.insert(*n.os);
      targets_.insert(*n.target);
      if (keep_ != nullptr && keep_->count(hash) == 0) continue;
      Term h = str_(hash);
      Term p = str_(n.name);
      program_.add_fact(Term::fun("installed_hash", {p, h}));
      program_.add_fact(Term::fun(
          pred, {h, str_("version"), p, str_(n.concrete_version()->str())}));
      for (const auto& [key, val] : n.variants) {
        program_.add_fact(
            Term::fun(pred, {h, str_("variant"), p, str_(key), str_(val)}));
      }
      program_.add_fact(Term::fun(pred, {h, str_("node_os"), p, str_(*n.os)}));
      program_.add_fact(
          Term::fun(pred, {h, str_("node_target"), p, str_(*n.target)}));
      for (const spec::DepEdge& e : n.deps) {
        if (e.type != DepType::Link) continue;
        const SpecNode& d = s.nodes()[e.child];
        program_.add_fact(
            Term::fun(pred, {h, str_("depends_on"), p, str_(d.name)}));
        program_.add_fact(
            Term::fun(pred, {h, str_("hash"), str_(d.name), str_(d.hash)}));
      }
    }
  }

  /// The host platform, preferred by the @120 objectives unless a request
  /// pins something else, and the os/target choice space of every entry.
  void compile_platform() {
    oses_.insert(opts_.default_os);
    targets_.insert(opts_.default_target);
    program_.add_fact(Term::fun("default_os", {str_(opts_.default_os)}));
    program_.add_fact(
        Term::fun("default_target", {str_(opts_.default_target)}));
    for (const std::string& o : oses_) {
      program_.add_fact(Term::fun("allowed_os", {str_(o)}));
    }
    for (const std::string& t : targets_) {
      program_.add_fact(Term::fun("allowed_target", {str_(t)}));
    }
  }

  // -- request compilation ---------------------------------------------------

  void compile_request(const Request& request) {
    const Spec& req = request.root;
    if (req.empty()) throw Error("empty request");
    const std::string& root = req.root().name;
    if (!repo_.contains(root)) {
      throw UnsatisfiableError("unknown package in request: " + root);
    }
    program_.add_fact(attr_("root", {node_(root)}));

    for (const SpecNode& n : req.nodes()) {
      std::string name = n.name;
      if (repo_.is_virtual(name)) {
        throw Error("requesting a virtual package directly is not supported: " +
                    name);
      }
      if (!repo_.contains(name)) {
        throw UnsatisfiableError("unknown package in request: " + name);
      }
      std::string who = "request " + req.str() + ": " + name;
      // The node must be in the solution.
      add_constraint({{attr_("node", {node_(name)}), false}},
                     who + " must be in the solution");
      if (!n.versions.any()) {
        std::string rid = range_id(name, n.versions);
        Term ok = Term::fun("request_ok", {str_(std::to_string(fresh_++))});
        Term v = Term::var("ReqV");
        add_rule(ok, {{attr_("version", {node_(name), v}), true},
                      {Term::fun("range_allows", {str_(rid), v}), true}});
        add_constraint({{ok, false}},
                       who + " version must satisfy " + n.versions.str());
      }
      for (const auto& [key, val] : n.variants) {
        add_constraint(
            {{attr_("node", {node_(name)}), true},
             {attr_("variant", {node_(name), str_(key), str_(val)}), false}},
            who + " variant " + key + " must be " + val);
      }
      // A pinned value the base's choice space lacks joins it here.
      if (n.os) {
        add_constraint({{attr_("node_os", {node_(name), str_(*n.os)}), false}},
                       who + " os must be " + *n.os);
        if (oses_.insert(*n.os).second) {
          program_.add_fact(Term::fun("allowed_os", {str_(*n.os)}));
        }
      }
      if (n.target) {
        add_constraint(
            {{attr_("node_target", {node_(name), str_(*n.target)}), false}},
            who + " target must be " + *n.target);
        if (targets_.insert(*n.target).second) {
          program_.add_fact(Term::fun("allowed_target", {str_(*n.target)}));
        }
      }
    }

    for (const std::string& f : request.forbidden) {
      add_constraint({{attr_("node", {node_(f)}), true}},
                     "request " + req.str() + ": package " + f +
                         " must not appear in the solution");
    }
  }

  const repo::Repository& repo_;
  const ConcretizerOptions& opts_;
  const std::map<std::string, Spec>& reusable_;
  /// Reachability slice: when set, entries outside it emit no facts.
  const std::set<std::string>* keep_ = nullptr;

  Program program_;
  std::map<std::string, std::set<std::string>> candidates_;
  // key -> (rid, (package, constraint))
  std::map<std::string,
           std::pair<std::string, std::pair<std::string, spec::VersionConstraint>>>
      ranges_;
  /// Ranges registered since the last emit_range_facts (map nodes are
  /// address-stable).
  std::vector<const decltype(ranges_)::value_type*> new_ranges_;
  std::set<std::string> oses_;
  std::set<std::string> targets_;
  std::size_t fresh_ = 0;
};

// ---- Concretizer ------------------------------------------------------------

namespace {

/// The slice-cache key of the unpruned program.  Slice fingerprints are hex
/// digests, so it never names a pruned slice.
constexpr std::string_view kKeepAll = "all";

/// A reachability walk's outcome, on its prune span and the prune counters.
void record_prune(trace::Span& span, std::size_t kept, std::size_t total) {
  trace::MetricsRegistry& m = trace::Tracer::global().metrics();
  span.attr("kept", kept);
  span.attr("total", total);
  m.add("concretize/prune_kept", static_cast<std::int64_t>(kept));
  m.add("concretize/prune_dropped", static_cast<std::int64_t>(total - kept));
}

}  // namespace

asp::Program Concretizer::compile_program(
    const std::vector<Request>& requests) const {
  std::size_t request_at = 0;
  auto [program, request_program] = compile_fresh(requests, &request_at);
  program.extend(request_program);
  return program;
}

std::pair<Program, Program> Concretizer::compile_fresh(
    const std::vector<Request>& requests, std::size_t* request_at) const {
  std::optional<reach::Slice> slice;
  if (prunes(requests)) {
    trace::Span span("prune", "concretize");
    slice = reach::slice_reusable(repo_, reusable_, reusable_edges_, requests);
    record_prune(span, slice->keep.size(), slice->total);
    if (slice->keep.size() == slice->total) slice.reset();
  }
  // The request compiles against the state compile_base leaves, which is
  // what a slice cache would have copied.
  Compiler c(repo_, opts_, reusable_, slice ? &slice->keep : nullptr);
  Program base = c.compile_base(request_at);
  Program request_program = c.compile(requests);
  return {std::move(base), std::move(request_program)};
}

bool Concretizer::prunes(const std::vector<Request>& requests) const {
  return opts_.prune_reuse && !reusable_.empty() && !requests.empty();
}

ProfileReport Concretizer::profile(const std::vector<Request>& requests) const {
  ProfileReport report;
  PassOptions po;
  po.name = "profile";
  po.label = "profile: ";
  po.profile = true;
  run_pass(requests, po, [&](Pass& pass) {
    for (const Request& r : requests) report.requests.push_back(r.root.str());
    report.sat = pass.solved.sat;
    report.stats = pass.solved.stats;
    report.profile = std::move(pass.profile);
  });
  return report;
}

json::Value ProfileReport::to_json() const {
  json::Object o;
  o["schema"] = "splice-profile-v1";
  json::Array reqs;
  reqs.reserve(requests.size());
  for (const std::string& r : requests) reqs.emplace_back(r);
  o["requests"] = std::move(reqs);
  o["sat"] = sat;
  o["stats"] = stats.to_json();
  o["profile"] = profile.to_json();
  return json::Value(std::move(o));
}

std::string ProfileReport::text(std::size_t top) const {
  std::string out = "profile of:";
  for (const std::string& r : requests) out += " " + r + ";";
  out += sat ? " (sat)\n" : " (unsat)\n";
  out += profile.summary(top);
  return out;
}

std::shared_ptr<const Concretizer::CompileCache> Concretizer::build_cache(
    const std::set<std::string>* keep) const {
  trace::Span span("build_cache", "concretize");
  auto cache = Compiler::build_cache(repo_, opts_, reusable_, keep);
  ++cache_builds_;
  std::size_t bytes = asp::ground_base_bytes(*cache->ground);
  span.attr("rules", cache->base_rules);
  span.attr("base_bytes", bytes);
  trace::Tracer::global().metrics().add("concretize/ground_base_bytes",
                                        static_cast<std::int64_t>(bytes));
  return cache;
}

std::shared_ptr<const Concretizer::CompileCache> Concretizer::ensure_cache(
    const std::vector<Request>& requests) const {
  static constexpr std::size_t kMaxSliceCaches = 64;
  static constexpr std::size_t kMaxSliceMemo = 4096;
  trace::MetricsRegistry& m = trace::Tracer::global().metrics();
  SliceMemo memo{std::string(kKeepAll)};  // the slice serving `requests`
  auto lookup = [&]() -> std::shared_ptr<const CompileCache> {
    auto it = slice_caches_.find(memo.fingerprint);  // callers hold cache_mu_
    if (it == slice_caches_.end()) return nullptr;
    m.add("concretize/slice_cache_hits");
    return it->second;
  };
  const bool prune = prunes(requests);
  std::optional<trace::Span> span;  // "prune": the walk and a cold build
  std::string key;
  std::optional<reach::Slice> slice;  // set when the walk pruned something
  if (prune) {
    span.emplace("prune", "concretize");
    for (const Request& r : requests) {
      if (!key.empty()) key += '\n';
      key += r.root.str();
    }
    // A request set seen before needs no walk while its slice is cached; an
    // evicted slice walks again.
    std::shared_ptr<const CompileCache> cached;
    {
      std::scoped_lock lock(cache_mu_);
      if (auto it = slice_memo_.find(key); it != slice_memo_.end()) {
        memo = it->second;
        cached = lookup();
      }
    }
    if (cached) {
      record_prune(*span, memo.kept, memo.total);
      return cached;
    }
    slice = reach::slice_reusable(repo_, reusable_, reusable_edges_, requests);
    memo = {slice->keep.size() == slice->total ? std::string(kKeepAll)
                                               : slice->fingerprint,
            slice->keep.size(), slice->total};
    record_prune(*span, memo.kept, memo.total);
    if (memo.kept == memo.total) slice.reset();  // the unpruned slice
  }

  // Cold builds run under the lock: concurrent batch workers hitting the
  // same fingerprint wait for one compile instead of duplicating it.
  std::scoped_lock lock(cache_mu_);
  if (prune) {
    if (slice_memo_.size() >= kMaxSliceMemo) slice_memo_.clear();
    slice_memo_[key] = memo;
  }
  if (auto cached = lookup()) return cached;
  auto cache = build_cache(slice ? &slice->keep : nullptr);
  m.add("concretize/slice_cache_builds");
  slice_caches_.emplace(memo.fingerprint, cache);
  slice_order_.push_back(memo.fingerprint);
  if (slice_order_.size() > kMaxSliceCaches) {
    slice_caches_.erase(slice_order_.front());
    slice_order_.erase(slice_order_.begin());
  }
  return cache;
}

std::size_t Concretizer::compile_cache_builds() const {
  std::scoped_lock lock(cache_mu_);
  return cache_builds_;
}

asp::AnalyzeOptions Concretizer::lint_options() {
  asp::AnalyzeOptions o;
  // attr/2..4 carries node, version/os/target/hash, variant and depends_on
  // payloads; the reuse fact predicates mirror that shape at 4 and 5.
  o.mixed_arity_ok = {"attr", "imposed_constraint", "hash_attr"};
  // Fact predicates that are legitimately absent in some configurations:
  // no reusable specs, no virtual packages, no can_splice directives, or the
  // splice fragment not loaded (spliced_away then has no deriving rule by
  // design, paper Figure 3b).
  o.externals = {"installed_hash", "imposed_constraint", "hash_attr",
                 "can_splice",     "spliced_away",       "range_allows",
                 "provides_now"};
  // attr is read back from the model by the solution extractor, not by rules.
  o.outputs = {"attr"};
  return o;
}

Concretizer::Concretizer(const repo::Repository& repo, ConcretizerOptions opts)
    : repo_(repo), opts_(opts) {
  if (opts_.enable_splicing && opts_.encoding != ReuseEncoding::Indirect) {
    throw Error("splicing requires ReuseEncoding::Indirect");
  }
}

void Concretizer::register_reusable(const Spec& concrete) {
  if (!concrete.is_concrete()) {
    throw Error("add_reusable: spec is not concrete: " + concrete.str());
  }
  for (std::size_t i = 0; i < concrete.nodes().size(); ++i) {
    const SpecNode& node = concrete.nodes()[i];
    // Record the DAG's package edges even for known hashes: the closure
    // walk must see every edge a cache draws beyond the repo directives.
    for (const spec::DepEdge& e : node.deps) {
      reusable_edges_[node.name].insert(concrete.nodes()[e.child].name);
    }
    if (reusable_.count(node.hash) > 0) continue;
    reusable_.emplace(node.hash, concrete.subdag(i));
  }
}

void Concretizer::invalidate_caches() {
  std::scoped_lock lock(cache_mu_);
  slice_caches_.clear();
  slice_order_.clear();
  slice_memo_.clear();
}

void Concretizer::add_reusable(const Spec& concrete) {
  register_reusable(concrete);
  invalidate_caches();
}

namespace {

/// SPLICE_PROFILE=1 (any value but 0/off/false, see env_switch) turns on
/// always-on profiling of every concretization: per-origin/per-rule
/// accounting rides the normal solve, headline totals land in the metrics
/// registry as profile/* series, and the flight account's note carries the
/// top-3 hottest directives (DESIGN.md §14).
bool env_profile_enabled() {
  static const bool on = env_switch("SPLICE_PROFILE", false);
  return on;
}

/// Resolve directive cost rows to their declaration sites: reconstruct each
/// package directive's note exactly as the compiler builds it and look the
/// row names up, filling Row::file/line from repo::DirectiveLoc.  depends_on
/// notes carry a trailing constraint clause, so they match by prefix.
void resolve_directive_locs(const repo::Repository& repo, asp::Profile& prof) {
  if (prof.directives.empty()) return;
  std::map<std::string, repo::DirectiveLoc> exact;
  std::vector<std::pair<std::string, repo::DirectiveLoc>> prefixes;
  for (const std::string& name : repo.package_names()) {
    const PackageDef& pkg = repo.get(name);
    for (const auto& c : pkg.conflicts_list()) {
      std::string note = name + ": conflicts with " + c.target.str();
      if (c.when) note += " when " + c.when->str();
      exact.emplace(std::move(note), c.loc);
    }
    for (const auto& s : pkg.splices()) {
      std::string note = name + ": can_splice " + s.target.str();
      if (s.when) note += " when " + s.when->str();
      exact.emplace(std::move(note), s.loc);
    }
    for (const auto& d : pkg.dependencies()) {
      prefixes.emplace_back(name + " depends_on " + d.target.str() + ": ",
                            d.loc);
    }
  }
  auto apply = [](asp::Profile::Row& row, const repo::DirectiveLoc& loc) {
    if (!loc.known()) return;
    row.file = loc.file;
    row.line = loc.line;
    row.col = 0;
    row.loc_known = true;
  };
  for (asp::Profile::Row& row : prof.directives) {
    auto it = exact.find(row.name);
    if (it != exact.end()) {
      apply(row, it->second);
      continue;
    }
    for (const auto& [prefix, loc] : prefixes) {
      if (row.name.compare(0, prefix.size(), prefix) == 0) {
        apply(row, loc);
        break;
      }
    }
  }
}

flight::Rollup rollup_of(const asp::SolveStats& st) {
  flight::Rollup roll;
  roll.conflicts = static_cast<std::uint64_t>(st.conflicts);
  roll.decisions = static_cast<std::uint64_t>(st.decisions);
  roll.propagations = static_cast<std::uint64_t>(st.propagations);
  roll.restarts = static_cast<std::uint64_t>(st.restarts);
  roll.models = static_cast<std::uint64_t>(st.models_enumerated);
  roll.loop_nogoods = static_cast<std::uint64_t>(st.loop_nogoods);
  roll.ground_rules = static_cast<std::uint64_t>(st.ground.rules);
  roll.ground_atoms = static_cast<std::uint64_t>(st.ground.possible_atoms);
  roll.sat_vars = static_cast<std::uint64_t>(st.sat_vars);
  roll.sat_clauses = static_cast<std::uint64_t>(st.sat_clauses);
  return roll;
}

}  // namespace

void Concretizer::run_pass(const std::vector<Request>& requests,
                           const PassOptions& po,
                           const std::function<void(Pass&)>& step) const {
  if (requests.empty()) throw Error(std::string(po.name) + ": no requests");
  // The recorder's one-time set-up (a 1 MiB ring) is not request work.
  flight::Recorder& recorder = flight::Recorder::global();
  trace::Span span(po.name, "concretize");
  span.attr("requests", requests.size());
  span.attr("reusable", reusable_.size());
  span.attr("splicing", opts_.enable_splicing);
  std::vector<std::string> roots;
  for (const Request& r : requests) roots.push_back(r.root.str());
  flight::RequestScope request(std::string(po.label) + join(roots, "; "),
                               recorder);
  Pass pass;
  pass.span = &span;
  std::shared_ptr<const CompileCache> cache;
  Program request_program;
  Program base;  // profiling and explanation passes compile a fresh base
  std::size_t request_at = 0;
  const bool fresh_base = po.profile || po.keep_ground;
  {
    // Prune and cold slice builds (base compile + base ground) are compile
    // work of the request that triggers them.
    flight::PhaseScope phase(flight::Phase::Compile, "compile", "concretize");
    std::size_t base_rules = 0;
    if (fresh_base) {
      std::tie(base, request_program) = compile_fresh(requests, &request_at);
      base_rules = base.rules().size();
    } else {
      cache = ensure_cache(requests);
      request_program =
          Compiler(repo_, opts_, reusable_, *cache).compile(requests);
      base_rules = cache->base_rules;
    }
    phase.attr("rules", base_rules + request_program.rules().size());
  }
  {
    flight::PhaseScope phase(flight::Phase::Ground, "ground", "concretize");
    if (fresh_base) {
      // Provenance and per-rule costs cover the base's instances too, so
      // these passes ground their own base through the same two calls.
      asp::GroundOptions gopts;
      gopts.record_provenance = true;
      gopts.profile = po.profile;
      auto frozen = asp::ground_base(base, gopts, request_at);
      pass.ground = asp::ground_request(*frozen, request_program, gopts);
      pass.program = std::move(base);  // rule indexes: base, then request
      pass.program.extend(request_program);
    } else {
      pass.ground = asp::ground_request(*cache->ground, request_program);
    }
  }
  {
    flight::PhaseScope phase(flight::Phase::Solve, "solve", "concretize");
    asp::SolveOptions sopts;
    sopts.profile = po.profile;
    pass.solved = asp::solve_ground(pass.ground, sopts);
    recorder.add_rollup(request.id(), rollup_of(pass.solved.stats));
    // The ground program's teardown is solve-state teardown: keep it
    // inside this phase unless the step reads it.
    if (!po.keep_ground) pass.ground = {};
    request_program = {};
    cache.reset();
  }
  flight::PhaseScope phase(flight::Phase::Extract, "extract", "concretize");
  // The profile digest rides the account's note, so slow-request dumps name
  // the hottest directives.
  std::string note;
  if (pass.solved.profile != nullptr) {
    pass.profile = asp::aggregate_profile(*pass.solved.profile, pass.program);
    resolve_directive_locs(repo_, pass.profile);
    note = pass.profile.top_line(3);
  }
  const bool sat = pass.solved.sat;
  std::string what = "no concretization satisfies: " + join(roots, "; ") + ";";
  if (!sat) note = note.empty() ? what : what + " [" + note + "]";
  step(pass);
  pass = Pass{};  // the last teardown, still inside the extraction phase
  phase.end();
  span.end();
  request.finish(sat ? flight::Outcome::Ok : flight::Outcome::Unsat, note);
  if (!sat && po.throw_unsat) throw UnsatisfiableError(what);
}

/// Extraction: the combined DAG holds every solution node (all are
/// reachable from some root by the node_used constraint).
EnvironmentResult Concretizer::concretize_together(
    const std::vector<Request>& requests) const {
  EnvironmentResult result;
  PassOptions po;
  po.name = "concretize";
  po.profile = env_profile_enabled();
  po.throw_unsat = true;
  run_pass(requests, po, [&](Pass& pass) {
    if (po.profile) {  // SPLICE_PROFILE's headline profile/* metrics
      const asp::Profile& prof = pass.profile;
      trace::MetricsRegistry& m = trace::Tracer::global().metrics();
      m.add("profile/solves");
      m.add("profile/attributed_propagations",
            static_cast<std::int64_t>(prof.sat_totals.propagations -
                                      prof.unattributed.propagations));
      m.add("profile/unattributed_propagations",
            static_cast<std::int64_t>(prof.unattributed.propagations));
      m.add("profile/attributed_conflicts",
            static_cast<std::int64_t>(prof.sat_totals.conflicts -
                                      prof.unattributed.conflicts));
      m.add("profile/unattributed_conflicts",
            static_cast<std::int64_t>(prof.unattributed.conflicts));
      m.add("profile/learned_without_origin",
            static_cast<std::int64_t>(prof.learned_without_origin));
      m.set_gauge("profile/directives",
                  static_cast<double>(prof.directives.size()));
      if (!prof.directives.empty()) {
        m.set_gauge("profile/top_directive_score",
                    prof.directives.front().score());
      }
    }
    if (!pass.solved.sat) return;
    const asp::Model& model = pass.solved.model;
    result.stats = pass.solved.stats;
    result.objectives = model.costs;

    auto arg_str = [](Term t, std::size_t i) {
      return std::string(t.args()[i].name());
    };
    auto node_name = [&](Term t, std::size_t i) {
      return std::string(t.args()[i].args()[0].name());
    };

    // Gather node names: the first request's root leads (so single-root
    // callers can use the combined spec directly), the rest in name order.
    std::map<std::string, std::size_t> index_of;
    Spec out;
    const std::string& primary = requests.front().root.root().name;
    std::vector<std::vector<Term>> attrs =
        model.with_signatures({"attr/2", "attr/3", "attr/4"});
    std::set<std::string> names;
    for (Term t : attrs[0]) {
      if (t.args()[0].name() != "node") continue;
      names.insert(node_name(t, 1));
    }
    names.insert(primary);
    {
      SpecNode r;
      r.name = primary;
      index_of[primary] = out.add_node(std::move(r));
    }
    for (const std::string& name : names) {
      if (name == primary) continue;
      SpecNode n;
      n.name = name;
      index_of[name] = out.add_node(std::move(n));
    }

    std::map<std::string, std::string> hash_of;       // node -> reused hash
    std::vector<std::tuple<std::string, std::string, std::string>> splice_attrs;

    for (Term t : attrs[1]) {
      std::string kind(t.args()[0].name());
      if (kind == "version") {
        out.nodes()[index_of.at(node_name(t, 1))].versions =
            spec::VersionConstraint::exactly(
                spec::Version::parse(arg_str(t, 2)));
      } else if (kind == "node_os") {
        out.nodes()[index_of.at(node_name(t, 1))].os = arg_str(t, 2);
      } else if (kind == "node_target") {
        out.nodes()[index_of.at(node_name(t, 1))].target = arg_str(t, 2);
      } else if (kind == "hash") {
        hash_of[node_name(t, 1)] = arg_str(t, 2);
      }
    }
    for (Term t : attrs[2]) {
      std::string kind(t.args()[0].name());
      if (kind == "variant") {
        out.nodes()[index_of.at(node_name(t, 1))].variants[arg_str(t, 2)] =
            arg_str(t, 3);
      } else if (kind == "depends_on") {
        std::string type = arg_str(t, 3);
        out.add_dep(index_of.at(node_name(t, 1)), index_of.at(node_name(t, 2)),
                    type == "build" ? DepType::Build : DepType::Link);
      } else if (kind == "splice") {
        splice_attrs.emplace_back(node_name(t, 1), arg_str(t, 2),
                                  arg_str(t, 3));
      }
    }

    try {
      out.finalize_concrete();
    } catch (const SpecError& e) {
      // A dependency cycle in the package definitions surfaces here (package
      // graphs must be acyclic; Spack rejects them too).
      throw UnsatisfiableError(std::string("invalid solution for ") +
                               requests.front().root.str() + ": " + e.what());
    }

    // Classify nodes: reused verbatim, spliced (reused + rewired), or built.
    // A node is affected by splicing if it carries a splice attribute itself
    // OR any link-run descendant does: replacing a grandchild changes every
    // ancestor's runtime identity, and every reused ancestor is rewired from
    // its original binary (transitive splices, paper §4.1).
    std::set<std::string> spliced_parents;
    for (const auto& [parent, replaced, replacement] : splice_attrs) {
      spliced_parents.insert(parent);
    }
    std::vector<bool> affected(out.nodes().size(), false);
    for (std::size_t i : out.topological_order()) {
      const SpecNode& n = out.nodes()[i];
      if (spliced_parents.count(n.name) > 0) affected[i] = true;
      for (const spec::DepEdge& e : n.deps) {
        if (e.type == DepType::Link && affected[e.child]) affected[i] = true;
      }
    }
    for (std::size_t i = 0; i < out.nodes().size(); ++i) {
      SpecNode& n = out.nodes()[i];
      auto it = hash_of.find(n.name);
      if (it == hash_of.end()) {
        result.build_names.push_back(n.name);
        continue;
      }
      const std::string& selected = it->second;
      auto cached = reusable_.find(selected);
      if (cached == reusable_.end()) {
        throw Error("internal: model reuses unknown hash " + selected);
      }
      if (n.hash == selected) {
        result.reused_hashes.push_back(selected);
        continue;
      }
      if (!affected[i]) {
        throw Error("internal: node " + n.name + " reuses " + selected +
                    " but solution hash is " + n.hash +
                    " and no splice explains the difference");
      }
      // A spliced (or transitively rewired) node: the binary comes from
      // `selected`; build_spec records that original build.
      n.build_spec = std::make_shared<Spec>(cached->second);
    }
    for (const auto& [parent, replaced, replacement] : splice_attrs) {
      result.splices.push_back(SpliceDecision{
          parent, hash_of.at(parent), replaced, replacement});
    }
    for (const Request& r : requests) {
      result.roots.push_back(out.subdag(index_of.at(r.root.root().name)));
    }
    pass.span->attr("nodes", out.nodes().size());
    pass.span->attr("builds", result.build_names.size());
    pass.span->attr("reused", result.reused_hashes.size());
    pass.span->attr("splices", result.splices.size());
    flight::Recorder& rec = flight::Recorder::global();
    for (const SpliceDecision& s : result.splices) {
      rec.emit(flight::EventKind::SpliceVerdict, 0, 0,
               s.parent_name + "<-" + s.replacement_name,
               flight::Phase::Extract);
    }
    rec.add_solution(rec.current_request(), result.build_names.size(),
                     result.reused_hashes.size(), result.splices.size());
  });
  return result;
}

ConcretizeResult Concretizer::concretize(const Request& request) const {
  EnvironmentResult env = concretize_together({request});
  return {.spec = std::move(env.roots.front()),
          .reused_hashes = std::move(env.reused_hashes),
          .build_names = std::move(env.build_names),
          .splices = std::move(env.splices),
          .objectives = std::move(env.objectives),
          .stats = env.stats};
}

}  // namespace splice::concretize
