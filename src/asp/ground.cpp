#include "src/asp/ground.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <unordered_set>

#include "src/support/error.hpp"
#include "src/support/hash.hpp"
#include "src/support/flight.hpp"
#include "src/support/trace.hpp"

namespace splice::asp {

AtomId GroundProgram::intern_atom(Term t) {
  if (t.id() >= id_by_term_.size()) id_by_term_.resize(t.id() + 1, kNoAtom);
  AtomId& slot = id_by_term_[t.id()];
  if (slot == kNoAtom) {
    slot = static_cast<AtomId>(atoms_.size());
    atoms_.push_back(t);
  }
  return slot;
}

std::optional<AtomId> GroundProgram::find_atom(Term t) const {
  if (t.id() >= id_by_term_.size() || id_by_term_[t.id()] == kNoAtom) {
    return std::nullopt;
  }
  return id_by_term_[t.id()];
}

namespace {

/// Membership bitset over global interned-term ids: terms are dense small
/// integers, so flat byte flags beat hash sets on the grounder's hottest
/// reads (store/possible/certain membership).
class TermFlags {
 public:
  bool test(Term t) const {
    return t.id() < flags_.size() && flags_[t.id()] != 0;
  }
  /// Returns true if the flag was newly set.
  bool set(Term t) {
    if (t.id() >= flags_.size()) flags_.resize(t.id() + 1, 0);
    if (flags_[t.id()]) return false;
    flags_[t.id()] = 1;
    return true;
  }

 private:
  std::vector<std::uint8_t> flags_;
};

/// Per-signature store of ground atoms with persistent, incrementally
/// maintained argument indexes.  Everything keys on interned SigIds; an
/// index is built once on first use and then only appended to, so candidate
/// lists handed to the join loop are never invalidated (callers iterate a
/// frozen prefix by index instead of copying).
class AtomStore {
 public:
  explicit AtomStore(bool use_indexes) : use_indexes_(use_indexes) {}

  /// Register a ground atom, stamping it with the fixpoint round that first
  /// derived it; returns true if new.
  bool add(Term atom, std::uint32_t round) {
    if (!present_.set(atom)) return false;
    ++size_;
    if (atom.id() >= stamp_.size()) stamp_.resize(atom.id() + 1, 0);
    stamp_[atom.id()] = round;
    Pred& pred = pred_for(atom);
    pred.atoms.push_back(atom);
    for (std::size_t pos = 0; pos < pred.by_pos.size(); ++pos) {
      ArgIndex& index = pred.by_pos[pos];
      if (index.built) index.map[atom.args()[pos].id()].push_back(atom);
    }
    return true;
  }

  bool contains(Term atom) const { return present_.test(atom); }

  /// Derivation round of a stored atom (only meaningful when contains()).
  std::uint32_t stamp(Term atom) const { return stamp_[atom.id()]; }
  std::size_t size() const { return size_; }

  /// Number of stored atoms with the given signature.
  std::size_t count(SigId sig) const {
    auto it = preds_.find(sig);
    return it == preds_.end() ? 0 : it->second.atoms.size();
  }

  /// All atoms with the given signature.  The returned vector may grow while
  /// the caller iterates (self-recursive predicates); iterate a frozen
  /// prefix by index.
  const std::vector<Term>& all(SigId sig) const {
    auto it = preds_.find(sig);
    return it == preds_.end() ? kEmpty : it->second.atoms;
  }

  /// Atoms with the given signature whose argument `argpos` equals `value`.
  /// Only valid for Fun atoms.  The index is built on first use per
  /// (sig, argpos) and kept up to date by add() from then on — never
  /// rebuilt, so returned buckets are append-only.
  const std::vector<Term>& lookup(SigId sig, std::size_t argpos, Term value) {
    auto it = preds_.find(sig);
    if (it == preds_.end()) return kEmpty;
    Pred& pred = it->second;
    ArgIndex& index = pred.by_pos[argpos];
    if (!index.built) {
      for (Term a : pred.atoms) index.map[a.args()[argpos].id()].push_back(a);
      index.built = true;
    }
    auto vit = index.map.find(value.id());
    return vit == index.map.end() ? kEmpty : vit->second;
  }

  bool use_indexes() const { return use_indexes_; }

  template <typename F>
  void for_each_pred(F&& f) const {
    for (const auto& [sig, pred] : preds_) f(sig, pred.atoms);
  }

 private:
  struct ArgIndex {
    std::unordered_map<std::uint32_t, std::vector<Term>> map;
    bool built = false;
  };
  struct Pred {
    std::vector<Term> atoms;
    std::vector<ArgIndex> by_pos;  // sized to the predicate arity
  };

  Pred& pred_for(Term atom) {
    auto [it, inserted] = preds_.try_emplace(atom.sig());
    if (inserted) {
      std::size_t arity =
          atom.kind() == TermKind::Fun ? atom.args().size() : 0;
      it->second.by_pos.resize(arity);
    }
    return it->second;
  }

  static const std::vector<Term> kEmpty;

  bool use_indexes_;
  TermFlags present_;
  std::vector<std::uint32_t> stamp_;  // term id -> first-derivation round
  std::size_t size_ = 0;
  // node-based: Pred references stay valid while the map grows.
  std::unordered_map<SigId, Pred> preds_;
};

const std::vector<Term> AtomStore::kEmpty;

void hash_body(Hasher& h, const std::vector<Literal>& body) {
  for (const Literal& l : body) {
    h.field_u64(l.atom.id());
    h.field_u64(l.positive ? 1 : 0);
  }
}

/// Key for deduplicating ground rule instances.  Built purely from interned
/// term ids, so re-derivations of the same instance (e.g. via different
/// semi-naive pivots or naive re-instantiation rounds) always collide.
std::uint64_t instance_key(const Term& head, const std::vector<Literal>& body) {
  Hasher h;
  h.field_u64(head.valid() ? head.id() : 0xffffffffu);
  hash_body(h, body);
  return h.lo() ^ h.hi();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Open-addressing set of 64-bit keys (linear probing, power-of-two table).
/// The grounder inserts one key per completed join — millions per resolve —
/// and std::unordered_set's per-node allocation plus rehash chains show up
/// as whole percents of ground time.  Key 0 is reserved as the empty slot
/// marker (remapped; hashed keys are never biased toward 0).
class U64Set {
 public:
  /// Returns true if the key was newly inserted.
  bool insert(std::uint64_t key) {
    if (key == 0) key = 0x9e3779b97f4a7c15ULL;  // remap reserved empty marker
    if ((count_ + 1) * 2 > slots_.size()) grow();
    std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(key) & mask;
    while (slots_[i] != 0) {
      if (slots_[i] == key) return false;
      i = (i + 1) & mask;
    }
    slots_[i] = key;
    ++count_;
    return true;
  }

 private:
  void grow() {
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(old.empty() ? 1024 : old.size() * 2, 0);
    std::size_t mask = slots_.size() - 1;
    for (std::uint64_t key : old) {
      if (key == 0) continue;
      std::size_t i = static_cast<std::size_t>(key) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = key;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t count_ = 0;
};

/// Pre-substitution duplicate filter key: a completed join with the same
/// (rule, element, variable bindings) always instantiates to the same ground
/// rule, and semi-naive re-derives each instance once per pivot position and
/// round.  Combining per-binding hashes commutatively makes the key
/// independent of binding insertion order, which varies with the pivot.
std::uint64_t binding_key(std::size_t rule_index, int elem, const Bindings& b) {
  std::uint64_t h = splitmix64(
      0x42696e642eULL ^ (static_cast<std::uint64_t>(rule_index) << 8) ^
      static_cast<std::uint64_t>(elem + 1));
  for (const auto& [var, value] : b.entries()) {
    h += splitmix64((static_cast<std::uint64_t>(var.id()) << 32) | value.id());
  }
  return h;
}

/// A fully instantiated (ground) normal rule or constraint awaiting
/// negation resolution.
struct Instance {
  const Rule* rule;
  Term head;                  // ground head atom (Atom rules)
  std::vector<Literal> body;  // ground literals, pos and neg
};

/// A ground choice-rule body (elements are grounded separately, see
/// ElemInstance, and attached at emission by matching ground bodies).
struct ChoiceInstance {
  const Rule* rule;
  std::size_t rule_index;
  std::vector<Literal> body;  // in rule-literal order (grouping key)
};

/// One ground choice element, produced by its own pseudo-rule
/// `elem_atom :- rule_body, elem_condition` so that element conditions
/// participate fully in the (semi-naive) fixpoint — enumeration is complete
/// over the final possible set regardless of when the choice body first
/// fired, which also makes the optimized and reference paths agree.
struct ElemInstance {
  std::size_t rule_index;
  Term atom;
  std::vector<Literal> body;  // the owning rule's body, rule-literal order
  std::vector<Literal> condition;
};

class Grounder {
 public:
  Grounder(const Program& program, const GroundOptions& opts)
      : program_(program), opts_(opts), store_(opts.use_indexes) {
    if (opts.record_provenance) prov_ = std::make_shared<Provenance>();
    if (opts.profile) {
      gprof_ = std::make_shared<GroundProfile>();
      gprof_->per_rule.resize(program.rules().size());
    }
  }

  GroundProgram run() {
    trace::Span span("ground", "asp");
    seed_facts();
    prepare_rules();
    fixpoint();
    certain_closure();
    GroundProgram out;
    emit(out);
    out.stats.possible_atoms = store_.size();
    out.stats.certain_atoms = certain_list_.size();
    out.stats.rules = out.rules.size();
    out.stats.choices = out.choices.size();
    out.stats.iterations = iterations_;
    span.attr("possible_atoms", out.stats.possible_atoms);
    span.attr("certain_atoms", out.stats.certain_atoms);
    span.attr("rules", out.stats.rules);
    span.attr("choices", out.stats.choices);
    span.attr("iterations", out.stats.iterations);
    out.stats.seconds = span.end();
    if (prov_) {
      out.stats.provenance_bytes = prov_->approx_bytes();
      trace::Tracer& tracer = trace::Tracer::global();
      if (tracer.enabled()) {
        tracer.metrics().add(
            "ground.provenance_bytes",
            static_cast<std::int64_t>(out.stats.provenance_bytes));
      }
      out.provenance = std::move(prov_);
    }
    if (gprof_) out.profile = std::move(gprof_);
    flight::Recorder::global().emit(
        flight::EventKind::GroundDone,
        static_cast<std::int64_t>(out.stats.possible_atoms),
        static_cast<std::int64_t>(out.stats.rules), {},
        flight::Phase::Ground);
    record_predicate_counts();
    return out;
  }

  /// Per-predicate possible-atom counts into the global metrics registry.
  /// Costs a walk of the per-predicate stores, so only runs while tracing.
  void record_predicate_counts() const {
    trace::Tracer& tracer = trace::Tracer::global();
    if (!tracer.enabled()) return;
    std::map<std::string, std::int64_t> counts;
    store_.for_each_pred([&](SigId sig, const std::vector<Term>& atoms) {
      counts[Term::sig_str(sig)] += static_cast<std::int64_t>(atoms.size());
    });
    for (const auto& [sig, n] : counts) {
      tracer.metrics().add("ground.atoms/" + sig, n);
    }
  }

 private:
  // -- preparation ---------------------------------------------------------

  struct PreparedRule {
    const Rule* rule;
    std::size_t rule_index;  // position in program_.rules()
    // For choice rules, each element gets its own pseudo-rule
    // `elem_atom :- rule_body, elem_condition` (elem >= 0) so element
    // conditions take part in the fixpoint like any other join.
    int elem = -1;
    // Positive body literals in join order; during semi-naive rounds each is
    // tried as the delta pivot.
    std::vector<const Literal*> pos;
    std::vector<const Literal*> neg;
    std::vector<SigId> pos_sigs;  // aligned with pos
  };

  /// Ground facts (empty body, ground atom head) seed the store, the delta
  /// and the certain set directly; everything else goes through the joiner.
  void seed_facts() {
    for (std::size_t ri = 0; ri < program_.rules().size(); ++ri) {
      const Rule& r = program_.rules()[ri];
      if (!r.body.empty()) continue;
      if (r.head.kind == Head::Kind::Atom && r.head.atom.is_ground() &&
          r.comparisons.empty()) {
        if (store_.add(r.head.atom, 0)) {
          seeds_.push_back(r.head.atom);
          record_atom_origin(r.head.atom, static_cast<std::uint32_t>(ri),
                             nullptr);
        }
        if (certain_.set(r.head.atom)) certain_list_.push_back(r.head.atom);
        consumed_.insert(&r);
      }
    }
  }

  void prepare_rules() {
    // Signatures with a deriving rule: their extension is unknown at
    // planning time (only facts are in the store), so the planner treats
    // them as large.
    std::unordered_set<SigId> derived;
    for (const Rule& r : program_.rules()) {
      if (r.head.kind == Head::Kind::Atom) derived.insert(r.head.atom.sig());
      for (const ChoiceElement& e : r.head.elements) derived.insert(e.atom.sig());
    }
    auto estimate = [&](const Literal* l) -> std::size_t {
      SigId sig = l->atom.sig();
      if (derived.count(sig) > 0) return kDerivedEstimate;
      return store_.count(sig);
    };
    std::size_t rule_index = 0;
    for (const Rule& r : program_.rules()) {
      std::size_t index = rule_index++;
      if (consumed_.count(&r) > 0) continue;
      PreparedRule pr;
      pr.rule = &r;
      pr.rule_index = index;
      for (const Literal& l : r.body) {
        (l.positive ? pr.pos : pr.neg).push_back(&l);
      }
      if (opts_.order_joins) order_join(pr.pos, estimate);
      for (const Literal* l : pr.pos) pr.pos_sigs.push_back(l->atom.sig());
      prepared_.push_back(std::move(pr));
      if (r.head.kind != Head::Kind::Choice) continue;
      for (std::size_t ei = 0; ei < r.head.elements.size(); ++ei) {
        PreparedRule pe;
        pe.rule = &r;
        pe.rule_index = index;
        pe.elem = static_cast<int>(ei);
        for (const Literal& l : r.body) {
          if (l.positive) pe.pos.push_back(&l);
        }
        for (const Literal& l : r.head.elements[ei].condition) {
          if (l.positive) pe.pos.push_back(&l);
        }
        if (opts_.order_joins) order_join(pe.pos, estimate);
        for (const Literal* l : pe.pos) pe.pos_sigs.push_back(l->atom.sig());
        prepared_.push_back(std::move(pe));
      }
    }
  }

  static constexpr std::size_t kDerivedEstimate = std::size_t{1} << 30;

  /// Greedy join planner: seed with the most selective literal (smallest
  /// estimated extension, then fewest variables), then repeatedly take the
  /// literal sharing the most already-bound variables (ties: smaller
  /// extension, then fewer unbound variables).
  template <typename Est>
  static void order_join(std::vector<const Literal*>& lits, Est&& estimate) {
    if (lits.size() < 2) return;
    std::vector<const Literal*> ordered;
    std::vector<Term> bound;
    std::vector<bool> used(lits.size(), false);
    for (std::size_t step = 0; step < lits.size(); ++step) {
      std::size_t best = SIZE_MAX;
      long best_shared = 0;
      std::size_t best_est = 0;
      std::size_t best_unbound = 0;
      for (std::size_t i = 0; i < lits.size(); ++i) {
        if (used[i]) continue;
        std::vector<Term> vs;
        collect_vars(lits[i]->atom, vs);
        long shared = 0;
        std::size_t unbound = 0;
        for (Term v : vs) {
          if (std::find(bound.begin(), bound.end(), v) != bound.end()) {
            ++shared;
          } else {
            ++unbound;
          }
        }
        std::size_t est = estimate(lits[i]);
        if (step == 0) shared = 0;  // seed purely on selectivity
        if (best == SIZE_MAX || shared > best_shared ||
            (shared == best_shared &&
             (est < best_est ||
              (est == best_est && unbound < best_unbound)))) {
          best = i;
          best_shared = shared;
          best_est = est;
          best_unbound = unbound;
        }
      }
      used[best] = true;
      ordered.push_back(lits[best]);
      collect_vars(lits[best]->atom, bound);
    }
    lits = std::move(ordered);
  }

  // -- fixpoint ------------------------------------------------------------

  /// Point join_slot_ at a rule's candidate counter and start its clock.
  /// Cheap no-op (one branch) when profiling is off.
  std::chrono::steady_clock::time_point profile_begin(std::size_t rule_index) {
    if (!gprof_) return {};
    join_slot_ = &gprof_->per_rule[rule_index].join_candidates;
    return std::chrono::steady_clock::now();
  }

  void profile_end(std::size_t rule_index,
                   std::chrono::steady_clock::time_point t0) {
    if (!gprof_) return;
    join_slot_ = nullptr;
    gprof_->per_rule[rule_index].seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }

  void fixpoint() {
    std::vector<Term> delta = seeds_;
    bool first_round = true;
    while (true) {
      ++iterations_;
      round_ = static_cast<std::uint32_t>(iterations_);
      std::vector<Term> next_delta;
      if (first_round || !opts_.semi_naive) {
        // Full instantiation of every rule against the current store (the
        // only mode of the naive reference path; round one of semi-naive).
        for (PreparedRule& pr : prepared_) {
          if (pr.pos.empty()) {
            if (first_round) {
              Bindings b;
              auto t0 = profile_begin(pr.rule_index);
              instantiate(pr, b, SIZE_MAX, kNoCap, kNoCap, next_delta);
              profile_end(pr.rule_index, t0);
            }
            continue;
          }
          Bindings b;
          auto t0 = profile_begin(pr.rule_index);
          instantiate(pr, b, SIZE_MAX, kNoCap, kNoCap, next_delta);
          profile_end(pr.rule_index, t0);
        }
      } else {
        // Semi-naive: bucket the delta by signature; a rule re-fires only
        // through a pivot literal matching a delta atom of its signature.
        // Exactness: literals before the pivot join against atoms strictly
        // older than the delta and literals after it against atoms no newer
        // than the delta, so a combination whose newest atom was derived in
        // round m fires exactly once — in round m+1, with the pivot on its
        // first newest-atom position.  (Atoms first seen mid-round during
        // round one are the only exception; the binding-key filter in
        // finish_instance absorbs those re-derivations.)
        std::uint32_t pre_cap = round_ - 2;
        std::uint32_t post_cap = round_ - 1;
        std::unordered_map<SigId, std::vector<Term>> delta_by_sig;
        for (Term d : delta) delta_by_sig[d.sig()].push_back(d);
        for (PreparedRule& pr : prepared_) {
          if (pr.pos.empty()) continue;
          for (std::size_t pivot = 0; pivot < pr.pos.size(); ++pivot) {
            auto bucket = delta_by_sig.find(pr.pos_sigs[pivot]);
            if (bucket == delta_by_sig.end()) continue;
            auto t0 = profile_begin(pr.rule_index);
            for (Term d : bucket->second) {
              Bindings b;
              if (!match(pr.pos[pivot]->atom, d, b)) continue;
              instantiate(pr, b, pivot, pre_cap, post_cap, next_delta);
            }
            profile_end(pr.rule_index, t0);
          }
        }
      }
      if (next_delta.empty()) break;
      delta = std::move(next_delta);
      first_round = false;
    }
  }

  /// Backtracking join over pr.pos; `skip` marks a literal already matched
  /// (the semi-naive pivot; SIZE_MAX for none).  Literals before the pivot
  /// only join atoms stamped <= pre_cap, literals after it atoms stamped
  /// <= post_cap (kNoCap disables the filter).
  void instantiate(PreparedRule& pr, Bindings& b, std::size_t skip,
                   std::uint32_t pre_cap, std::uint32_t post_cap,
                   std::vector<Term>& next_delta) {
    instantiate_at(pr, b, 0, skip, pre_cap, post_cap, next_delta);
  }

  void instantiate_at(PreparedRule& pr, Bindings& b, std::size_t i,
                      std::size_t skip, std::uint32_t pre_cap,
                      std::uint32_t post_cap,
                      std::vector<Term>& next_delta) {
    if (i == pr.pos.size()) {
      finish_instance(pr, b, next_delta);
      return;
    }
    if (i == skip) {
      instantiate_at(pr, b, i + 1, skip, pre_cap, post_cap, next_delta);
      return;
    }
    match_literal(pr.pos[i]->atom, b, i < skip ? pre_cap : post_cap,
                  [&](Bindings& nb) {
                    instantiate_at(pr, nb, i + 1, skip, pre_cap, post_cap,
                                   next_delta);
                  });
  }

  static constexpr std::uint32_t kNoCap = 0xffffffffu;

  /// Enumerate ground atoms matching `pattern` under `b`, invoking `k` with
  /// the extended bindings for each.  Only atoms stamped <= max_stamp are
  /// considered (see instantiate).  The candidate list may grow while the
  /// continuation runs (self-recursive predicates); only the prefix present
  /// at entry is visited, matching one semi-naive round.
  template <typename K>
  void match_literal(Term pattern, Bindings& b, std::uint32_t max_stamp,
                     K&& k) {
    Term inst = substitute(pattern, b);
    if (inst.is_ground()) {
      if (join_slot_) ++*join_slot_;
      if (store_.contains(inst) && store_.stamp(inst) <= max_stamp) k(b);
      return;
    }
    SigId sig = inst.sig();
    const std::vector<Term>* candidates = nullptr;
    if (store_.use_indexes() && inst.kind() == TermKind::Fun) {
      // Probe every ground argument position and scan the smallest bucket —
      // selectivity varies wildly between positions (e.g. a package name vs
      // a near-constant flag) and each extra probe is one hash lookup.
      std::span<const Term> args = inst.args();
      for (std::size_t p = 0; p < args.size(); ++p) {
        if (!args[p].is_ground()) continue;
        const std::vector<Term>& bucket = store_.lookup(sig, p, args[p]);
        if (candidates == nullptr || bucket.size() < candidates->size()) {
          candidates = &bucket;
          if (candidates->empty()) break;
        }
      }
    }
    if (candidates == nullptr) candidates = &store_.all(sig);
    std::size_t frozen = candidates->size();
    if (join_slot_) *join_slot_ += frozen;
    std::size_t mark = b.size();
    for (std::size_t i = 0; i < frozen; ++i) {
      Term cand = (*candidates)[i];
      if (store_.stamp(cand) > max_stamp) continue;
      if (match(inst, cand, b)) k(b);
      b.truncate(mark);
    }
  }

  /// Ground the full rule body in rule-literal order under complete
  /// bindings.  Rule order (not join order) keeps the emitted bodies — and
  /// the choice-grouping keys below — independent of the join planner.
  std::vector<Literal> ground_body(const Rule& r, Bindings& b) {
    std::vector<Literal> body;
    body.reserve(r.body.size());
    for (const Literal& l : r.body) {
      Term g = substitute(l.atom, b);
      if (!g.is_ground()) {
        throw AspError("body literal not ground after join: " + g.str_repr());
      }
      body.push_back({g, l.positive});
    }
    return body;
  }

  void finish_instance(PreparedRule& pr, Bindings& b,
                       std::vector<Term>& next_delta) {
    const Rule& r = *pr.rule;
    // Skip re-derived bindings before paying for substitution and content
    // hashing — the bulk of completed joins are semi-naive re-derivations.
    // The naive reference path keeps only the content-level dedup below.
    if (opts_.semi_naive &&
        !seen_bindings_.insert(binding_key(pr.rule_index, pr.elem, b))) {
      return;
    }
    // Evaluate comparisons.
    for (const Comparison& c : r.comparisons) {
      Comparison g{c.op, substitute(c.lhs, b), substitute(c.rhs, b)};
      if (!eval_comparison(g)) return;
    }
    if (pr.elem >= 0) {
      finish_element(pr, b, next_delta);
      return;
    }
    std::vector<Literal> body = ground_body(r, b);

    switch (r.head.kind) {
      case Head::Kind::Atom: {
        Term head = substitute(r.head.atom, b);
        std::uint64_t key = instance_key(head, body);
        if (!seen_instances_.insert(key)) return;
        if (gprof_) ++gprof_->per_rule[pr.rule_index].instantiations;
        if (store_.add(head, round_)) {
          next_delta.push_back(head);
          record_atom_origin(head, static_cast<std::uint32_t>(pr.rule_index),
                             &b);
        }
        instances_.push_back(Instance{&r, head, std::move(body)});
        record_instance_origin(inst_origin_, pr.rule_index, b);
        break;
      }
      case Head::Kind::None: {
        std::uint64_t key = instance_key(Term(), body);
        if (!seen_instances_.insert(key)) return;
        if (gprof_) ++gprof_->per_rule[pr.rule_index].instantiations;
        instances_.push_back(Instance{&r, Term(), std::move(body)});
        record_instance_origin(inst_origin_, pr.rule_index, b);
        break;
      }
      case Head::Kind::Choice: {
        Hasher h;
        h.field_u64(0x43686f6963652e);  // tag: choice body
        h.field_u64(pr.rule_index);
        hash_body(h, body);
        if (!seen_instances_.insert(h.lo() ^ h.hi())) return;
        if (gprof_) ++gprof_->per_rule[pr.rule_index].instantiations;
        choice_instances_.push_back(
            ChoiceInstance{&r, pr.rule_index, std::move(body)});
        record_instance_origin(choice_inst_origin_, pr.rule_index, b);
        break;
      }
    }
  }

  // -- provenance recording (no-ops unless record_provenance) ---------------

  void record_atom_origin(Term atom, std::uint32_t rule_index,
                          const Bindings* b) {
    if (!prov_) return;
    Provenance::Origin o;
    o.rule_index = rule_index;
    if (b != nullptr) o.bindings = b->entries();
    prov_->atom_origin.emplace(atom.id(), std::move(o));
  }

  void record_instance_origin(std::vector<Provenance::Origin>& dest,
                              std::size_t rule_index, const Bindings& b) {
    if (!prov_) return;
    Provenance::Origin o;
    o.rule_index = static_cast<std::uint32_t>(rule_index);
    o.bindings = b.entries();
    dest.push_back(std::move(o));
  }

  /// Complete match of a choice-element pseudo-rule: record the ground
  /// element keyed by its owning rule instance's ground body.
  void finish_element(PreparedRule& pr, Bindings& b,
                      std::vector<Term>& next_delta) {
    const Rule& r = *pr.rule;
    const ChoiceElement& e = r.head.elements[static_cast<std::size_t>(pr.elem)];
    Term atom = substitute(e.atom, b);
    if (!atom.is_ground()) {
      throw AspError("choice element atom not ground: " + atom.str_repr());
    }
    std::vector<Literal> body = ground_body(r, b);
    std::vector<Literal> cond;
    cond.reserve(e.condition.size());
    for (const Literal& l : e.condition) {
      Term g = substitute(l.atom, b);
      if (!g.is_ground()) {
        throw AspError("choice condition literal not ground after join: " +
                       g.str_repr());
      }
      cond.push_back({g, l.positive});
    }
    Hasher h;
    h.field_u64(0x456c656d2e);  // tag: choice element
    h.field_u64(pr.rule_index);
    h.field_u64(static_cast<std::uint64_t>(pr.elem));
    h.field_u64(atom.id());
    hash_body(h, body);
    h.field_u64(0x7c);  // body | condition separator
    hash_body(h, cond);
    if (!seen_instances_.insert(h.lo() ^ h.hi())) return;
    if (gprof_) ++gprof_->per_rule[pr.rule_index].instantiations;
    if (store_.add(atom, round_)) {
      next_delta.push_back(atom);
      record_atom_origin(atom, static_cast<std::uint32_t>(pr.rule_index), &b);
    }
    elem_instances_.push_back(
        ElemInstance{pr.rule_index, atom, std::move(body), std::move(cond)});
  }

  template <typename K>
  void enumerate_condition(const std::vector<const Literal*>& pos,
                           std::size_t i, Bindings& b, K&& k) {
    if (i == pos.size()) {
      k();
      return;
    }
    match_literal(pos[i]->atom, b, kNoCap,
                  [&](Bindings&) { enumerate_condition(pos, i + 1, b, k); });
  }

  // -- certainty -----------------------------------------------------------

  /// Deterministic least-fixpoint closure of the certain set over the final
  /// instance list: a head is certain when every body literal is certainly
  /// true (positive & certain, or negative & impossible).  Running this as a
  /// post-pass — instead of tracking certainty incrementally during the
  /// fixpoint — makes the result independent of instantiation order, so the
  /// optimized and reference grounders emit identical programs.
  void certain_closure() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Instance& inst : instances_) {
        if (inst.rule->head.kind != Head::Kind::Atom) continue;
        if (certain_.test(inst.head)) continue;
        bool all_true = true;
        for (const Literal& l : inst.body) {
          bool lit_true = l.positive ? certain_.test(l.atom)
                                     : !store_.contains(l.atom);
          if (!lit_true) {
            all_true = false;
            break;
          }
        }
        if (all_true) {
          certain_.set(inst.head);
          certain_list_.push_back(inst.head);
          changed = true;
        }
      }
    }
  }

  // -- emission ------------------------------------------------------------

  /// Resolve a symbolic ground literal against the final possible/certain
  /// sets.  Returns: 1 literal true (drop it), -1 literal false (drop rule),
  /// 0 keep.
  int resolve(const Literal& l) const {
    bool poss = store_.contains(l.atom);
    bool cert = certain_.test(l.atom);
    if (l.positive) {
      if (cert) return 1;
      if (!poss) return -1;
      return 0;
    }
    if (cert) return -1;
    if (!poss) return 1;
    return 0;
  }

  /// Resolve a full body; returns false when the body is unsatisfiable.
  bool resolve_body(const std::vector<Literal>& in, GroundProgram& out,
                    std::vector<GLit>& lits) const {
    for (const Literal& l : in) {
      int r = resolve(l);
      if (r == -1) return false;
      if (r == 1) continue;
      lits.push_back({out.intern_atom(l.atom), l.positive});
    }
    return true;
  }

  void emit(GroundProgram& out) {
    for (Term t : certain_list_) out.facts.push_back(out.intern_atom(t));

    // Instance/choice origins are recorded in lockstep with instances_ /
    // choice_instances_, so the emission loops below re-align them with the
    // *emitted* rule/choice indexes (instances skipped here drop out).
    for (std::size_t ii = 0; ii < instances_.size(); ++ii) {
      const Instance& inst = instances_[ii];
      const Rule& r = *inst.rule;
      if (r.head.kind == Head::Kind::Atom && certain_.test(inst.head)) {
        continue;  // already a fact
      }
      std::vector<GLit> body;
      if (!resolve_body(inst.body, out, body)) continue;
      GRule gr;
      gr.has_head = r.head.kind == Head::Kind::Atom;
      if (gr.has_head) gr.head = out.intern_atom(inst.head);
      gr.body = std::move(body);
      out.rules.push_back(std::move(gr));
      if (prov_) prov_->rule_origin.push_back(inst_origin_[ii]);
      if (gprof_) {
        // Instances point into program_.rules(), so the source index is
        // recoverable without provenance.
        ++gprof_->per_rule[static_cast<std::size_t>(
                               inst.rule - program_.rules().data())]
              .emitted_rules;
      }
    }

    // Attach ground elements to their owning choice instance by matching
    // (rule, ground body).  Element instances were produced by per-element
    // pseudo-rules, so each carries its rule body grounding as the join key.
    auto body_sig = [](std::size_t rule_index,
                       const std::vector<Literal>& body) {
      std::string k = std::to_string(rule_index);
      for (const Literal& l : body) {
        k += l.positive ? '+' : '-';
        k += std::to_string(l.atom.id());
      }
      return k;
    };
    std::unordered_map<std::string, std::vector<const ElemInstance*>>
        elems_by_body;
    for (const ElemInstance& ei : elem_instances_) {
      elems_by_body[body_sig(ei.rule_index, ei.body)].push_back(&ei);
    }
    for (std::size_t ci_i = 0; ci_i < choice_instances_.size(); ++ci_i) {
      const ChoiceInstance& ci = choice_instances_[ci_i];
      const Rule& r = *ci.rule;
      std::vector<GLit> body;
      if (!resolve_body(ci.body, out, body)) continue;
      if (prov_) prov_->choice_origin.push_back(choice_inst_origin_[ci_i]);
      GChoice gc;
      gc.lower = r.head.lower;
      gc.upper = r.head.upper;
      gc.body = std::move(body);
      auto it = elems_by_body.find(body_sig(ci.rule_index, ci.body));
      if (it != elems_by_body.end()) {
        for (const ElemInstance* ei : it->second) {
          std::vector<GLit> cond;
          if (!resolve_body(ei->condition, out, cond)) continue;
          GChoiceElem ge;
          ge.atom = out.intern_atom(ei->atom);
          ge.condition = std::move(cond);
          gc.elements.push_back(std::move(ge));
        }
      }
      out.choices.push_back(std::move(gc));
      if (gprof_) ++gprof_->per_rule[ci.rule_index].emitted_choices;
    }

    emit_minimize(out);
  }

  void emit_minimize(GroundProgram& out) {
    auto t0 = std::chrono::steady_clock::now();
    if (gprof_) join_slot_ = &gprof_->minimize_join_candidates;
    // Ground each minimize element's condition, then group by
    // (weight, priority, tuple) so duplicate tuples contribute once.
    std::map<std::tuple<std::int64_t, std::int64_t, std::string>,
             std::vector<std::vector<GLit>>>
        groups;
    for (const MinimizeElement& m : program_.minimizes()) {
      std::vector<const Literal*> pos;
      std::vector<const Literal*> neg;
      for (const Literal& l : m.condition) (l.positive ? pos : neg).push_back(&l);
      Bindings b;
      enumerate_condition(pos, 0, b, [&]() {
        std::vector<Literal> cond;
        for (const Literal* l : pos) cond.push_back({substitute(l->atom, b), true});
        for (const Literal* l : neg) cond.push_back({substitute(l->atom, b), false});
        std::vector<GLit> lits;
        if (!resolve_body(cond, out, lits)) return;
        Term wt = substitute(m.weight, b);
        if (wt.kind() != TermKind::Int || wt.int_value() < 0) {
          throw AspError("minimize weight must ground to a non-negative integer, got " +
                         wt.str_repr());
        }
        std::string tuple;
        for (Term t : m.tuple) tuple += substitute(t, b).str_repr() + ",";
        groups[{wt.int_value(), m.priority, tuple}].push_back(std::move(lits));
      });
    }
    for (auto& [key, conds] : groups) {
      GMinTerm term;
      term.weight = std::get<0>(key);
      term.priority = std::get<1>(key);
      term.tuple_repr = std::get<2>(key);
      // A tuple with any empty (trivially true) condition is a constant cost;
      // it still participates so that reported costs match ASP semantics.
      term.conditions = std::move(conds);
      out.minimize.push_back(std::move(term));
    }
    if (gprof_) {
      join_slot_ = nullptr;
      gprof_->minimize_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    }
  }

  const Program& program_;
  GroundOptions opts_;
  std::vector<PreparedRule> prepared_;
  std::unordered_set<const Rule*> consumed_;  // facts turned into seeds
  AtomStore store_;                           // membership == "possible"
  TermFlags certain_;
  std::vector<Term> certain_list_;
  std::vector<Term> seeds_;
  U64Set seen_instances_;
  U64Set seen_bindings_;
  std::vector<Instance> instances_;
  std::vector<ChoiceInstance> choice_instances_;
  std::vector<ElemInstance> elem_instances_;
  std::shared_ptr<Provenance> prov_;  // null unless record_provenance
  std::shared_ptr<GroundProfile> gprof_;  // null unless profile
  // While non-null, match_literal adds its candidate-scan work here; the
  // fixpoint points it at the active rule's counter (profile_begin/_end).
  std::uint64_t* join_slot_ = nullptr;
  std::vector<Provenance::Origin> inst_origin_;         // || instances_
  std::vector<Provenance::Origin> choice_inst_origin_;  // || choice_instances_
  std::size_t iterations_ = 0;
  std::uint32_t round_ = 0;  // current fixpoint round (stamps new atoms)
};

}  // namespace

GroundProgram ground(const Program& program, const GroundOptions& opts) {
  return Grounder(program, opts).run();
}

GroundProgram ground_reference(const Program& program) {
  return Grounder(program, GroundOptions::reference()).run();
}

json::Value GroundStats::to_json() const {
  json::Object o;
  o["possible_atoms"] = static_cast<std::int64_t>(possible_atoms);
  o["certain_atoms"] = static_cast<std::int64_t>(certain_atoms);
  o["rules"] = static_cast<std::int64_t>(rules);
  o["choices"] = static_cast<std::int64_t>(choices);
  o["iterations"] = static_cast<std::int64_t>(iterations);
  o["provenance_bytes"] = static_cast<std::int64_t>(provenance_bytes);
  o["seconds"] = seconds;
  return json::Value(std::move(o));
}

std::size_t Provenance::approx_bytes() const {
  auto origin_bytes = [](const Origin& o) {
    return sizeof(Origin) + o.bindings.capacity() * sizeof(o.bindings[0]);
  };
  std::size_t total = 0;
  for (const Origin& o : rule_origin) total += origin_bytes(o);
  for (const Origin& o : choice_origin) total += origin_bytes(o);
  for (const auto& [id, o] : atom_origin) {
    // ~3 words of unordered_map node overhead per entry beyond the payload.
    total += sizeof(id) + origin_bytes(o) + 3 * sizeof(void*);
  }
  return total;
}

}  // namespace splice::asp
