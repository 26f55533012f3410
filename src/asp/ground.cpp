#include "src/asp/ground.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <span>
#include <tuple>
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
  /// Size for ids below `n` up front (restoring a base sets many at once).
  void reserve_ids(std::size_t n) {
    if (n > flags_.size()) flags_.resize(n, 0);
  }

 private:
  std::vector<std::uint8_t> flags_;
};

// ---- flat ground statements --------------------------------------------------

/// A ground literal packed into 32 bits: term id << 1 | negated.
std::uint32_t pack_lit(Term atom, bool positive) {
  if (atom.id() >= (1u << 31)) {
    throw AspError("ground literal: term id exceeds the packed 31-bit range");
  }
  return (atom.id() << 1) | (positive ? 0u : 1u);
}
Term lit_atom(std::uint32_t lit) { return Term::from_id(lit >> 1); }
bool lit_positive(std::uint32_t lit) { return (lit & 1u) == 0; }

/// Ground bodies in one packed-literal pool: body i is lits[off[i], off[i+1]).
struct Bodies {
  std::vector<std::uint32_t> off{0};
  std::vector<std::uint32_t> lits;

  std::size_t size() const { return off.size() - 1; }
  std::span<const std::uint32_t> operator[](std::size_t i) const {
    return {lits.data() + off[i], lits.data() + off[i + 1]};
  }
  void push(const std::vector<Literal>& body) {
    for (const Literal& l : body) lits.push_back(pack_lit(l.atom, l.positive));
    close();
  }
  /// End the body whose literals were appended to `lits` since the last one.
  void close() { off.push_back(static_cast<std::uint32_t>(lits.size())); }
  std::size_t bytes() const {
    return (off.capacity() + lits.capacity()) * sizeof(std::uint32_t);
  }
};

/// Ground normal rules and integrity constraints (invalid head).  `round`
/// is the fixpoint round that instantiated each one: emission orders
/// statements by (round, rule position), as a one-shot grounding does.
struct RuleTable {
  std::vector<std::uint32_t> rule;  // source rule index
  std::vector<std::uint32_t> round;
  std::vector<Term> head;
  Bodies body;

  std::size_t size() const { return rule.size(); }
  std::size_t bytes() const {
    return (rule.capacity() + round.capacity()) * sizeof(std::uint32_t) +
           head.capacity() * sizeof(Term) + body.bytes();
  }
};

/// Ground choice-rule bodies.  `key` identifies (rule, ground body): the
/// instance dedup key, shared with the elements that belong to it.
struct ChoiceTable {
  std::vector<std::uint32_t> rule;
  std::vector<std::uint32_t> round;
  std::vector<std::uint64_t> key;
  Bodies body;

  std::size_t size() const { return rule.size(); }
  std::size_t bytes() const {
    return (rule.capacity() + round.capacity()) * sizeof(std::uint32_t) +
           key.capacity() * sizeof(std::uint64_t) + body.bytes();
  }
};

/// Ground choice elements with their residual conditions.  `choice` is the
/// key of the owning choice instance (ChoiceTable::key).
struct ElemTable {
  std::vector<std::uint64_t> choice;
  std::vector<Term> atom;
  Bodies cond;

  std::size_t size() const { return atom.size(); }
};

/// #minimize groups, one per distinct (weight, priority, tuple), sorted by
/// that key; group g's conditions are conds[cond_off[g], cond_off[g+1]).
struct MinGroups {
  std::vector<std::int64_t> weight;
  std::vector<std::int64_t> priority;
  std::vector<std::uint32_t> tuple_off{0};
  std::string tuple;  // tuple renderings, concatenated
  std::vector<std::uint32_t> cond_off{0};
  Bodies conds;

  std::size_t size() const { return weight.size(); }
  std::string_view tuple_at(std::size_t g) const {
    return std::string_view(tuple).substr(tuple_off[g],
                                          tuple_off[g + 1] - tuple_off[g]);
  }
  std::size_t bytes() const {
    return (weight.capacity() + priority.capacity()) * sizeof(std::int64_t) +
           (tuple_off.capacity() + cond_off.capacity()) *
               sizeof(std::uint32_t) +
           tuple.capacity() + conds.bytes();
  }
};

using MinKey = std::tuple<std::int64_t, std::int64_t, std::string>;

}  // namespace

/// The frozen base grounding.  Every array holds 32-bit term ids or indexes
/// (choice keys are 64-bit hashes); nothing here is indexed by term id, so
/// the footprint follows the slice, not the global term arena.
struct GroundBase {
  GroundOptions opts;
  std::size_t program_rules = 0;  // rules of the base program
  // The base's rules a request can re-join (every rule but its facts, notes
  // dropped), by base rule index, and its #minimize elements.
  std::vector<std::uint32_t> source_ids;  // sorted
  std::vector<Rule> source_rules;         // || source_ids
  std::vector<MinimizeElement> minimizes;
  GroundStats stats;
  // Possible atoms by signature: sigs[i]'s atoms are
  // atoms[sig_off[i], sig_off[i+1]), in derivation order.
  std::vector<SigId> sigs;
  std::vector<std::uint32_t> sig_off{0};
  std::vector<Term> atoms;
  std::vector<std::uint32_t> atom_round;  // || atoms: deriving round
  std::uint32_t max_atom_id = 0;
  std::uint32_t rounds = 0;  // rounds of the base fixpoint
  // Request rules are ordered as if inserted at this base rule index.
  std::size_t request_at = 0;
  // The certain atoms in closure order, facts first; the first
  // seeds_before are facts of rules before request_at.
  std::vector<Term> certain;
  std::size_t seeds_before = 0;
  // The certain atoms that rest on `not a` for a base-impossible a (sorted
  // ids); the rest are certain under every request.
  std::vector<std::uint32_t> conditional;
  // Keys (pivot_key_of) of the negative literals of the base's normal
  // rules: a request atom matching none cannot flip a base certainty.
  std::vector<std::uint64_t> negated_keys;
  // Instances that may still emit: heads certain under every request and
  // bodies negating such an atom are dropped, its positive literals
  // stripped.
  RuleTable rules;
  ChoiceTable choices;
  std::vector<std::uint32_t> elem_off{0};  // choice i: [elem_off[i], [i+1])
  std::vector<Term> elem_atom;
  Bodies elem_cond;
  std::vector<std::uint32_t> choice_by_key;  // choice indexes sorted by key
  MinGroups minimize;
  // Join entries a request's delta can reach: entry e re-joins rule
  // entry_rule[e] (choice element entry_elem[e], or -1 for the rule body).
  std::vector<std::uint32_t> entry_rule;
  std::vector<std::int32_t> entry_elem;
  // Sorted (signature << 32 | first-argument id or kAnyArg) of every
  // positive body literal, with the entry it belongs to.
  std::vector<std::uint64_t> pivot_key;
  std::vector<std::uint32_t> pivot_entry;
  // Only with record_provenance: aligned with rules / choices.
  std::vector<Provenance::Origin> rule_origin;
  std::vector<Provenance::Origin> choice_origin;
  std::unordered_map<std::uint32_t, Provenance::Origin> atom_origin;
  // Only with profile: the base fixpoint's per-rule cost.
  std::shared_ptr<const GroundProfile> profile;

  const Rule& rule(std::uint32_t index) const {
    auto it = std::lower_bound(source_ids.begin(), source_ids.end(), index);
    return source_rules[static_cast<std::size_t>(it - source_ids.begin())];
  }

  /// Index of the choice instance with `key`, or kNone.
  std::uint32_t find_choice(std::uint64_t key) const {
    auto it = std::lower_bound(
        choice_by_key.begin(), choice_by_key.end(), key,
        [&](std::uint32_t c, std::uint64_t k) { return choices.key[c] < k; });
    if (it == choice_by_key.end() || choices.key[*it] != key) return kNone;
    return *it;
  }

  std::size_t bytes() const {
    return sizeof(GroundBase) + sigs.capacity() * sizeof(SigId) +
           (sig_off.capacity() + atom_round.capacity() +
            conditional.capacity()) *
               sizeof(std::uint32_t) +
           negated_keys.capacity() * sizeof(std::uint64_t) +
           atoms.capacity() * sizeof(Term) + certain.capacity() * sizeof(Term) +
           rules.bytes() + choices.bytes() +
           elem_off.capacity() * sizeof(std::uint32_t) +
           elem_atom.capacity() * sizeof(Term) + elem_cond.bytes() +
           choice_by_key.capacity() * sizeof(std::uint32_t) +
           minimize.bytes() + entry_rule.capacity() * sizeof(std::uint32_t) +
           entry_elem.capacity() * sizeof(std::int32_t) +
           pivot_key.capacity() * sizeof(std::uint64_t) +
           pivot_entry.capacity() * sizeof(std::uint32_t) +
           source_ids.capacity() * sizeof(std::uint32_t) + source_bytes();
  }

  /// Heap bytes of the copied rules and #minimize elements.
  std::size_t source_bytes() const {
    std::size_t n = source_rules.capacity() * sizeof(Rule) +
                    minimizes.capacity() * sizeof(MinimizeElement);
    for (const Rule& r : source_rules) {
      n += r.body.capacity() * sizeof(Literal) +
           r.comparisons.capacity() * sizeof(Comparison) +
           r.head.elements.capacity() * sizeof(ChoiceElement);
      for (const ChoiceElement& e : r.head.elements) {
        n += e.condition.capacity() * sizeof(Literal);
      }
    }
    for (const MinimizeElement& m : minimizes) {
      n += (m.tuple.capacity()) * sizeof(Term) +
           m.condition.capacity() * sizeof(Literal);
    }
    return n;
  }

  /// Drop growth slack: a base lives as long as its slice.
  void shrink() {
    auto fit = [](auto&... v) { (v.shrink_to_fit(), ...); };
    fit(sigs, sig_off, atoms, atom_round, certain, conditional, negated_keys,
        rules.rule, rules.round, rules.head, rules.body.off, rules.body.lits,
        choices.rule, choices.round, choices.key, choices.body.off,
        choices.body.lits, elem_off, elem_atom, elem_cond.off, elem_cond.lits,
        choice_by_key, minimize.weight, minimize.priority, minimize.tuple_off,
        minimize.tuple, minimize.cond_off, minimize.conds.off,
        minimize.conds.lits, entry_rule, entry_elem, pivot_key, pivot_entry,
        source_ids, source_rules, rule_origin, choice_origin);
  }

  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr std::uint32_t kAnyArg = 0xffffffffu;
};

namespace {

/// The pivot-index key of an atom or pattern: its signature plus its first
/// argument when that is ground (kAnyArg otherwise).
std::uint64_t pivot_key_of(Term t) {
  std::uint32_t arg = GroundBase::kAnyArg;
  if (t.kind() == TermKind::Fun) {
    std::span<const Term> args = t.args();
    if (!args.empty() && args[0].is_ground()) arg = args[0].id();
  }
  return (static_cast<std::uint64_t>(t.sig()) << 32) | arg;
}

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

  /// Load a frozen base's atoms with the rounds that derived them (all
  /// older than any request round).  Must run on an empty store.
  void restore(const GroundBase& base) {
    present_.reserve_ids(std::size_t{base.max_atom_id} + 1);
    stamp_.assign(std::size_t{base.max_atom_id} + 1, 0);
    for (std::size_t i = 0; i < base.sigs.size(); ++i) {
      std::uint32_t lo = base.sig_off[i];
      std::uint32_t hi = base.sig_off[i + 1];
      Pred& pred = pred_for(base.atoms[lo]);
      pred.atoms.assign(base.atoms.begin() + lo, base.atoms.begin() + hi);
      pred.base = hi - lo;
      for (std::uint32_t a = lo; a < hi; ++a) {
        present_.set(base.atoms[a]);
        stamp_[base.atoms[a].id()] = base.atom_round[a];
      }
      size_ += hi - lo;
    }
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

  /// Atoms with the given signature added after restore() (all of them on a
  /// store that was not restored).
  std::span<const Term> fresh(SigId sig) const {
    auto it = preds_.find(sig);
    if (it == preds_.end()) return {};
    const std::vector<Term>& atoms = it->second.atoms;
    return {atoms.data() + it->second.base, atoms.size() - it->second.base};
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
    std::size_t base = 0;          // atoms restored from a frozen base
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

/// Identity of a choice instance: (rule, ground body).  Its elements compute
/// the same key from their copy of the rule body, which is how they find
/// the instance they belong to.
std::uint64_t choice_key(std::size_t rule_index,
                         const std::vector<Literal>& body) {
  Hasher h;
  h.field_u64(0x43686f6963652e);  // tag: choice body
  h.field_u64(rule_index);
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

/// One grounding run.  Base mode grounds a program from scratch and freezes
/// it (freeze()); request mode restores a frozen base, grounds a request
/// program on top of it and emits the ground program (emit_request()).
/// Rule indexes are global: base rules first, then the request's.
class Grounder {
 public:
  /// Base mode; request rules will be ordered as if inserted at rule
  /// index `request_at`.
  Grounder(const Program& program, const GroundOptions& opts,
           std::size_t request_at)
      : opts_(opts), store_(opts.use_indexes), own_(&program), nbase_(0),
        request_at_(std::min(request_at, program.rules().size())) {
    if (opts.record_provenance) prov_ = std::make_shared<Provenance>();
    if (opts.profile) {
      gprof_ = std::make_shared<GroundProfile>();
      gprof_->per_rule.resize(program.rules().size());
    }
  }

  /// Request mode: restore `base` before grounding `request`.
  Grounder(const GroundBase& base, const Program& request,
           const GroundOptions& opts)
      : opts_(opts), store_(opts.use_indexes), base_(&base),
        own_(&request),
        nbase_(static_cast<std::uint32_t>(base.program_rules)),
        request_at_(base.request_at) {
    if (opts.record_provenance && !base.opts.record_provenance) {
      throw AspError("ground_request: provenance needs a base grounded "
                     "with record_provenance");
    }
    if (opts.profile && !base.opts.profile) {
      throw AspError("ground_request: profiling needs a base grounded "
                     "with profile");
    }
    if (opts.record_provenance) {
      prov_ = std::make_shared<Provenance>();
      prov_->atom_origin = base.atom_origin;
    }
    if (opts.profile) {
      gprof_ = std::make_shared<GroundProfile>(*base.profile);
      gprof_->per_rule.resize(nbase_ + request.rules().size());
    }
    iterations_ = base.stats.iterations;
    store_.restore(base);
    // Request atoms are newer than every base atom: the request's facts
    // carry stamp rounds + 1, base-only joins cap at rounds.
    base_rounds_ = base.rounds;
    round_ = base.rounds + 1;
  }

  /// Base mode: fixpoint, certainty, minimize matches, freeze.
  std::shared_ptr<GroundBase> freeze() {
    trace::Span span("ground_base", "asp");
    seed_facts();
    prepare_rules();
    fixpoint();
    close_certainty();
    auto base = std::make_shared<GroundBase>();
    base->opts = opts_;
    base->program_rules = own_->rules().size();
    base->rounds = round_;
    base->request_at = request_at_;
    freeze_atoms(*base);
    freeze_rules(*base);
    freeze_choices(*base);
    freeze_minimize(*base);
    freeze_entries(*base);
    freeze_sources(*base);
    if (gprof_) base->profile = std::move(gprof_);
    GroundStats& st = base->stats;
    st.possible_atoms = store_.size();
    st.certain_atoms = certain_list_.size();
    st.rules = base->rules.size();
    st.choices = base->choices.size();
    st.iterations = iterations_;
    span.attr("possible_atoms", st.possible_atoms);
    span.attr("certain_atoms", st.certain_atoms);
    span.attr("rules", st.rules);
    span.attr("choices", st.choices);
    span.attr("iterations", st.iterations);
    base->shrink();
    span.attr("bytes", base->bytes());
    st.seconds = span.end();
    return base;
  }

  /// Request mode: seed, resume, close certainty, emit.
  GroundProgram emit_request() {
    trace::Span span("ground", "asp");
    seed_facts();
    prepare_rules();
    fixpoint();
    restore_certain();
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
    std::size_t rule_index;  // global rule index (base rules first)
    // For choice rules, each element gets its own pseudo-rule
    // `elem_atom :- rule_body, elem_condition` (elem >= 0) so element
    // conditions take part in the fixpoint like any other join.
    int elem = -1;
    // Positive body literals in join order; during semi-naive rounds each is
    // tried as the delta pivot.
    std::vector<const Literal*> pos;
    std::vector<SigId> pos_sigs;  // aligned with pos
  };

  const Rule& rule_at(std::size_t index) const {
    return index < nbase_ ? base_->rule(static_cast<std::uint32_t>(index))
                          : own_->rules()[index - nbase_];
  }

  /// Ground facts (empty body, ground atom head) seed the store, the delta
  /// and the certain set directly; everything else goes through the joiner.
  void seed_facts() {
    for (std::size_t ri = 0; ri < own_->rules().size(); ++ri) {
      const Rule& r = own_->rules()[ri];
      if (!r.body.empty()) continue;
      if (r.head.kind == Head::Kind::Atom && r.head.atom.is_ground() &&
          r.comparisons.empty()) {
        if (store_.add(r.head.atom, round_)) {
          seeds_.push_back(r.head.atom);
          if (base_ != nullptr) fresh_round_[r.head.atom.id()] = 0;
          record_atom_origin(r.head.atom,
                             static_cast<std::uint32_t>(nbase_ + ri), nullptr);
        }
        if (certain_.set(r.head.atom)) {
          certain_list_.push_back(r.head.atom);
          if (ri < request_at_) seeds_before_ = certain_list_.size();
        }
        consumed_.insert(&r);
      }
    }
  }

  void prepare_rules() {
    // Signatures with a deriving rule: their extension is unknown at
    // planning time (only facts are in the store), so the planner treats
    // them as large.
    std::unordered_set<SigId> derived;
    for (const Rule& r : own_->rules()) {
      if (r.head.kind == Head::Kind::Atom) derived.insert(r.head.atom.sig());
      for (const ChoiceElement& e : r.head.elements) derived.insert(e.atom.sig());
    }
    std::size_t rule_index = nbase_;
    for (const Rule& r : own_->rules()) {
      std::size_t index = rule_index++;
      if (consumed_.count(&r) > 0) continue;
      prepared_.push_back(prepare(r, index, -1, derived));
      if (r.head.kind != Head::Kind::Choice) continue;
      for (std::size_t ei = 0; ei < r.head.elements.size(); ++ei) {
        prepared_.push_back(prepare(r, index, static_cast<int>(ei), derived));
      }
    }
  }

  PreparedRule prepare(const Rule& r, std::size_t index, int elem,
                       const std::unordered_set<SigId>& derived) {
    PreparedRule pr;
    pr.rule = &r;
    pr.rule_index = index;
    pr.elem = elem;
    for (const Literal& l : r.body) {
      if (l.positive) pr.pos.push_back(&l);
    }
    if (elem >= 0) {
      for (const Literal& l : r.head.elements[static_cast<std::size_t>(elem)]
                                  .condition) {
        if (l.positive) pr.pos.push_back(&l);
      }
    }
    if (opts_.order_joins) {
      order_join(pr.pos, [&](const Literal* l) -> std::size_t {
        SigId sig = l->atom.sig();
        if (derived.count(sig) > 0) return kDerivedEstimate;
        return store_.count(sig);
      });
    }
    for (const Literal* l : pr.pos) pr.pos_sigs.push_back(l->atom.sig());
    return pr;
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

  /// Semi-naive rounds.  Base mode starts from the program's facts with a
  /// full instantiation round.  Request mode starts from the request's new
  /// facts: its own rules get the full first round, the base's rules are
  /// only re-joined through delta pivots (every combination of base atoms
  /// alone was instantiated when the base was grounded).
  void fixpoint() {
    std::vector<Term> delta = seeds_;
    if (base_ != nullptr && delta.empty() && prepared_.empty()) return;
    bool first_round = true;
    while (true) {
      ++iterations_;
      ++round_;
      std::vector<Term> next_delta;
      // Exactness: literals before the pivot join against atoms strictly
      // older than the delta and literals after it against atoms no newer
      // than the delta, so a combination whose newest atom was derived in
      // round m fires exactly once — in round m+1, with the pivot on its
      // first newest-atom position.  (Atoms first seen mid-round during a
      // full round are the only exception; the binding-key filter in
      // finish_instance absorbs those re-derivations.)
      std::uint32_t pre_cap = round_ - 2;
      std::uint32_t post_cap = round_ - 1;
      std::unordered_map<SigId, std::vector<Term>> delta_by_sig;
      for (Term d : delta) delta_by_sig[d.sig()].push_back(d);
      if (base_ != nullptr) {
        for (std::uint32_t e : base_entries_hit(delta)) {
          fire_pivots(base_entry(e), delta_by_sig, pre_cap, post_cap,
                      next_delta);
        }
      }
      if (first_round || !opts_.semi_naive) {
        // Full instantiation of every rule against the current store (the
        // only mode of the naive reference path; round one of semi-naive).
        for (PreparedRule& pr : prepared_) {
          if (pr.pos.empty() && !first_round) continue;
          Bindings b;
          auto t0 = profile_begin(pr.rule_index);
          instantiate(pr, b, SIZE_MAX, kNoCap, kNoCap, next_delta);
          profile_end(pr.rule_index, t0);
        }
      } else {
        for (PreparedRule& pr : prepared_) {
          fire_pivots(pr, delta_by_sig, pre_cap, post_cap, next_delta);
        }
      }
      if (next_delta.empty()) break;
      delta = std::move(next_delta);
      first_round = false;
    }
  }

  /// A rule re-fires only through a pivot literal matching a delta atom of
  /// its signature.
  void fire_pivots(PreparedRule& pr,
                   const std::unordered_map<SigId, std::vector<Term>>& by_sig,
                   std::uint32_t pre_cap, std::uint32_t post_cap,
                   std::vector<Term>& next_delta) {
    for (std::size_t pivot = 0; pivot < pr.pos.size(); ++pivot) {
      auto bucket = by_sig.find(pr.pos_sigs[pivot]);
      if (bucket == by_sig.end()) continue;
      auto t0 = profile_begin(pr.rule_index);
      for (Term d : bucket->second) {
        Bindings b;
        if (!match(pr.pos[pivot]->atom, d, b)) continue;
        instantiate(pr, b, pivot, pre_cap, post_cap, next_delta);
      }
      profile_end(pr.rule_index, t0);
    }
  }

  /// Base join entries with a positive literal that may match a delta atom,
  /// in entry (program) order.
  std::vector<std::uint32_t> base_entries_hit(const std::vector<Term>& delta) {
    std::vector<std::uint32_t> hits;
    const std::vector<std::uint64_t>& keys = base_->pivot_key;
    auto collect = [&](std::uint64_t key) {
      auto [lo, hi] = std::equal_range(keys.begin(), keys.end(), key);
      for (auto it = lo; it != hi; ++it) {
        hits.push_back(base_->pivot_entry[static_cast<std::size_t>(
            it - keys.begin())]);
      }
    };
    for (Term d : delta) {
      std::uint64_t key = pivot_key_of(d);
      collect(key);
      if (static_cast<std::uint32_t>(key) != GroundBase::kAnyArg) {
        collect((key & ~std::uint64_t{0xffffffffu}) | GroundBase::kAnyArg);
      }
    }
    std::sort(hits.begin(), hits.end());
    hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
    return hits;
  }

  /// The join plan of base entry `e`, planned on first use against the
  /// restored store.
  PreparedRule& base_entry(std::uint32_t e) {
    auto it = base_prepared_.find(e);
    if (it != base_prepared_.end()) return it->second;
    std::uint32_t ri = base_->entry_rule[e];
    return base_prepared_
        .emplace(e, prepare(rule_at(ri), ri, base_->entry_elem[e], {}))
        .first->second;
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

  /// Ground `lits` under complete bindings into `out`, in literal order.
  /// Rule order (not join order) keeps the emitted bodies — and the
  /// choice-grouping keys below — independent of the join planner.
  static void ground_lits(const std::vector<Literal>& lits, const Bindings& b,
                          std::vector<Literal>& out, const char* what) {
    out.clear();
    for (const Literal& l : lits) {
      Term g = substitute(l.atom, b);
      if (!g.is_ground()) {
        throw AspError(std::string(what) + " literal not ground after join: " +
                       g.str_repr());
      }
      out.push_back({g, l.positive});
    }
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
    ground_lits(r.body, b, body_, "body");
    auto ri = static_cast<std::uint32_t>(pr.rule_index);

    switch (r.head.kind) {
      case Head::Kind::Atom:
      case Head::Kind::None: {
        Term head;
        if (r.head.kind == Head::Kind::Atom) head = substitute(r.head.atom, b);
        if (!seen_instances_.insert(instance_key(head, body_))) return;
        if (gprof_) ++gprof_->per_rule[ri].instantiations;
        std::uint32_t round = instance_round(body_, {});
        if (head.valid() && store_.add(head, round_)) {
          next_delta.push_back(head);
          note_fresh(head, round);
          record_atom_origin(head, ri, &b);
        }
        rules_.rule.push_back(ri);
        rules_.round.push_back(round);
        rules_.head.push_back(head);
        rules_.body.push(body_);
        record_instance_origin(rule_origin_, ri, b);
        break;
      }
      case Head::Kind::Choice: {
        std::uint64_t key = choice_key(ri, body_);
        if (!seen_instances_.insert(key)) return;
        if (gprof_) ++gprof_->per_rule[ri].instantiations;
        choices_.rule.push_back(ri);
        choices_.round.push_back(instance_round(body_, {}));
        choices_.key.push_back(key);
        choices_.body.push(body_);
        record_instance_origin(choice_origin_, ri, b);
        break;
      }
    }
  }

  // -- one-shot order -------------------------------------------------------

  /// The fixpoint round that instantiates a body.  In request mode: the
  /// round a one-shot grounding of base ∪ request would — one after its
  /// newest positive atom, counting base atoms at their base round, the
  /// request's facts at 0 and request-derived atoms at their instance's.
  std::uint32_t instance_round(const std::vector<Literal>& body,
                               const std::vector<Literal>& cond) const {
    if (base_ == nullptr) return round_;
    std::uint32_t newest = 0;
    auto scan = [&](const std::vector<Literal>& lits) {
      for (const Literal& l : lits) {
        if (!l.positive) continue;
        std::uint32_t s = store_.stamp(l.atom);
        if (s > base_rounds_) s = fresh_round_.at(l.atom.id());
        newest = std::max(newest, s);
      }
    };
    scan(body);
    scan(cond);
    return newest + 1;
  }

  void note_fresh(Term atom, std::uint32_t round) {
    if (base_ != nullptr) fresh_round_[atom.id()] = round;
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
                              std::uint32_t rule_index, const Bindings& b) {
    if (!prov_) return;
    Provenance::Origin o;
    o.rule_index = rule_index;
    o.bindings = b.entries();
    dest.push_back(std::move(o));
  }

  /// Complete match of a choice-element pseudo-rule: record the ground
  /// element under the key of its owning rule instance.
  void finish_element(PreparedRule& pr, Bindings& b,
                      std::vector<Term>& next_delta) {
    const Rule& r = *pr.rule;
    const ChoiceElement& e = r.head.elements[static_cast<std::size_t>(pr.elem)];
    Term atom = substitute(e.atom, b);
    if (!atom.is_ground()) {
      throw AspError("choice element atom not ground: " + atom.str_repr());
    }
    ground_lits(r.body, b, body_, "body");
    ground_lits(e.condition, b, cond_, "choice condition");
    Hasher h;
    h.field_u64(0x456c656d2e);  // tag: choice element
    h.field_u64(pr.rule_index);
    h.field_u64(static_cast<std::uint64_t>(pr.elem));
    h.field_u64(atom.id());
    hash_body(h, body_);
    h.field_u64(0x7c);  // body | condition separator
    hash_body(h, cond_);
    if (!seen_instances_.insert(h.lo() ^ h.hi())) return;
    auto ri = static_cast<std::uint32_t>(pr.rule_index);
    if (gprof_) ++gprof_->per_rule[ri].instantiations;
    if (store_.add(atom, round_)) {
      next_delta.push_back(atom);
      note_fresh(atom, instance_round(body_, cond_));
      record_atom_origin(atom, ri, &b);
    }
    elems_.choice.push_back(choice_key(ri, body_));
    elems_.atom.push_back(atom);
    elems_.cond.push(cond_);
  }

  // -- certainty -----------------------------------------------------------

  /// One closure pass over a rule table: heads whose body is certainly true
  /// (positive & in `flags`, or negative & impossible — never, with
  /// `positive_only`) join `flags` and `list`.  Returns true on a change.
  bool closure_pass(const RuleTable& t, TermFlags& flags,
                    std::vector<Term>& list, bool positive_only) const {
    bool changed = false;
    for (std::size_t i = 0; i < t.size(); ++i) {
      Term head = t.head[i];
      if (!head.valid() || flags.test(head)) continue;
      bool all_true = true;
      for (std::uint32_t l : t.body[i]) {
        Term a = lit_atom(l);
        bool lit_true = lit_positive(l) ? flags.test(a)
                                        : !positive_only && !store_.contains(a);
        if (!lit_true) {
          all_true = false;
          break;
        }
      }
      if (all_true) {
        flags.set(head);
        list.push_back(head);
        changed = true;
      }
    }
    return changed;
  }

  /// Base mode: the full closure (as a one-shot grounding computes it) and
  /// its negation-free part.  The positive fixpoint is monotone, so the
  /// negation-free part is certain under every request; the rest rests on
  /// `not a` for atoms a request may make possible.
  void close_certainty() {
    std::vector<Term> always = certain_list_;
    for (Term t : always) always_.set(t);
    while (closure_pass(rules_, always_, always, true)) {
    }
    while (closure_pass(rules_, certain_, certain_list_, false)) {
    }
  }

  /// Request mode: the base's certain atoms in one-shot order, with the
  /// request's facts at request_at.  When a request atom may match a
  /// negative literal of a base rule, the base's negation-dependent
  /// certainties are dropped and re-derived by certain_closure().
  void restore_certain() {
    std::vector<Term> facts = std::move(certain_list_);
    certain_list_.clear();
    certain_ = TermFlags();
    certain_.reserve_ids(std::size_t{base_->max_atom_id} + 1);
    const bool exact = !fresh_hits_negation();
    const std::vector<std::uint32_t>& cond = base_->conditional;
    auto add = [&](Term t) {
      if (!exact && std::binary_search(cond.begin(), cond.end(), t.id())) {
        return;
      }
      if (certain_.set(t)) certain_list_.push_back(t);
    };
    const std::vector<Term>& base = base_->certain;
    for (std::size_t i = 0; i < base_->seeds_before; ++i) add(base[i]);
    for (Term t : facts) add(t);
    for (std::size_t i = base_->seeds_before; i < base.size(); ++i) add(base[i]);
  }

  /// Whether a request atom may match a negative literal of a base rule
  /// with a head (by signature and first argument).
  bool fresh_hits_negation() const {
    const std::vector<std::uint64_t>& keys = base_->negated_keys;
    for (const auto& [id, round] : fresh_round_) {
      std::uint64_t key = pivot_key_of(Term::from_id(id));
      std::uint64_t any = (key & ~std::uint64_t{0xffffffffu}) | GroundBase::kAnyArg;
      if (std::binary_search(keys.begin(), keys.end(), key) ||
          std::binary_search(keys.begin(), keys.end(), any)) {
        return true;
      }
    }
    return false;
  }

  /// Deterministic least-fixpoint closure of the certain set over the final
  /// instance list: a head is certain when every body literal is certainly
  /// true (positive & certain, or negative & impossible).  Running this as a
  /// post-pass — instead of tracking certainty incrementally during the
  /// fixpoint — makes the result independent of instantiation order, so the
  /// optimized and reference grounders emit identical programs.
  void certain_closure() {
    bool changed = true;
    while (changed) {
      changed = closure_pass(base_->rules, certain_, certain_list_, false);
      changed = closure_pass(rules_, certain_, certain_list_, false) || changed;
    }
  }

  // -- freezing (base mode) ---------------------------------------------------

  /// Literal status known for every request: 1 true (always-certain
  /// positive), -1 false (negated always-certain atom), 0 depends on the
  /// request.
  int frozen_status(std::uint32_t l) const {
    if (!always_.test(lit_atom(l))) return 0;
    return lit_positive(l) ? 1 : -1;
  }

  /// Copy `body` into `out` without its certainly-true literals; false (and
  /// nothing closed) when a literal is false under every request.
  bool freeze_body(std::span<const std::uint32_t> body, Bodies& out) const {
    std::size_t mark = out.lits.size();
    for (std::uint32_t l : body) {
      int s = frozen_status(l);
      if (s == -1) {
        out.lits.resize(mark);
        return false;
      }
      if (s == 0) out.lits.push_back(l);
    }
    out.close();
    return true;
  }

  void freeze_atoms(GroundBase& base) const {
    std::vector<SigId> sigs;
    store_.for_each_pred([&](SigId sig, const std::vector<Term>&) {
      sigs.push_back(sig);
    });
    std::sort(sigs.begin(), sigs.end());
    for (SigId sig : sigs) {
      const std::vector<Term>& atoms = store_.all(sig);
      if (atoms.empty()) continue;
      base.sigs.push_back(sig);
      for (Term a : atoms) {
        base.atoms.push_back(a);
        base.atom_round.push_back(store_.stamp(a));
        base.max_atom_id = std::max(base.max_atom_id, a.id());
      }
      base.sig_off.push_back(static_cast<std::uint32_t>(base.atoms.size()));
    }
    base.certain = certain_list_;
    base.seeds_before = seeds_before_;
    for (Term t : certain_list_) {
      if (!always_.test(t)) base.conditional.push_back(t.id());
    }
    std::sort(base.conditional.begin(), base.conditional.end());
    for (const Rule& r : own_->rules()) {
      if (r.head.kind != Head::Kind::Atom) continue;
      for (const Literal& l : r.body) {
        if (!l.positive) base.negated_keys.push_back(pivot_key_of(l.atom));
      }
    }
    std::sort(base.negated_keys.begin(), base.negated_keys.end());
    base.negated_keys.erase(
        std::unique(base.negated_keys.begin(), base.negated_keys.end()),
        base.negated_keys.end());
    if (prov_) base.atom_origin = std::move(prov_->atom_origin);
  }

  /// Keep the instances that can still emit: an always-certain head is
  /// already a fact and a negated always-certain atom makes the body false,
  /// for every request.
  void freeze_rules(GroundBase& base) {
    for (std::size_t i = 0; i < rules_.size(); ++i) {
      Term head = rules_.head[i];
      if (head.valid() && always_.test(head)) continue;
      if (!freeze_body(rules_.body[i], base.rules.body)) continue;
      base.rules.rule.push_back(rules_.rule[i]);
      base.rules.round.push_back(rules_.round[i]);
      base.rules.head.push_back(head);
      if (prov_) base.rule_origin.push_back(std::move(rule_origin_[i]));
    }
  }

  /// Keep the live choice instances and group their elements under them
  /// (element order within a choice is derivation order).
  void freeze_choices(GroundBase& base) {
    std::vector<std::uint32_t> kept(choices_.size(), GroundBase::kNone);
    for (std::size_t i = 0; i < choices_.size(); ++i) {
      if (!freeze_body(choices_.body[i], base.choices.body)) continue;
      kept[i] = static_cast<std::uint32_t>(base.choices.size());
      base.choices.rule.push_back(choices_.rule[i]);
      base.choices.round.push_back(choices_.round[i]);
      base.choices.key.push_back(choices_.key[i]);
      if (prov_) base.choice_origin.push_back(std::move(choice_origin_[i]));
    }
    std::vector<std::uint32_t> owner = owners(choices_, elems_);
    std::vector<std::vector<std::uint32_t>> by_choice(base.choices.size());
    for (std::size_t j = 0; j < elems_.size(); ++j) {
      if (owner[j] == GroundBase::kNone || kept[owner[j]] == GroundBase::kNone) {
        continue;
      }
      by_choice[kept[owner[j]]].push_back(static_cast<std::uint32_t>(j));
    }
    for (const std::vector<std::uint32_t>& elems : by_choice) {
      for (std::uint32_t j : elems) {
        if (!freeze_body(elems_.cond[j], base.elem_cond)) continue;
        base.elem_atom.push_back(elems_.atom[j]);
      }
      base.elem_off.push_back(static_cast<std::uint32_t>(base.elem_atom.size()));
    }
    base.choice_by_key.resize(base.choices.size());
    for (std::uint32_t c = 0; c < base.choice_by_key.size(); ++c) {
      base.choice_by_key[c] = c;
    }
    std::sort(base.choice_by_key.begin(), base.choice_by_key.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return base.choices.key[a] < base.choices.key[b];
              });
  }

  /// Owning choice instance (index into `choices`) of every element, kNone
  /// when no instance has its key.
  static std::vector<std::uint32_t> owners(const ChoiceTable& choices,
                                           const ElemTable& elems) {
    std::unordered_map<std::uint64_t, std::uint32_t> by_key;
    by_key.reserve(choices.size());
    for (std::size_t i = 0; i < choices.size(); ++i) {
      by_key.emplace(choices.key[i], static_cast<std::uint32_t>(i));
    }
    std::vector<std::uint32_t> owner(elems.size(), GroundBase::kNone);
    for (std::size_t j = 0; j < elems.size(); ++j) {
      auto it = by_key.find(elems.choice[j]);
      if (it != by_key.end()) owner[j] = it->second;
    }
    return owner;
  }

  /// Ground the base's #minimize conditions against the base atoms and
  /// group them by (weight, priority, tuple), ready for every request.
  void freeze_minimize(GroundBase& base) {
    std::map<MinKey, Bodies> groups;
    for (const MinimizeElement& m : own_->minimizes()) {
      enumerate_minimize(m, false, [&](MinKey key) {
        freeze_body(packed_, groups[std::move(key)]);
      });
    }
    MinGroups& out = base.minimize;
    for (auto& [key, conds] : groups) {
      if (conds.size() == 0) continue;
      out.weight.push_back(std::get<0>(key));
      out.priority.push_back(std::get<1>(key));
      out.tuple += std::get<2>(key);
      out.tuple_off.push_back(static_cast<std::uint32_t>(out.tuple.size()));
      for (std::size_t c = 0; c < conds.size(); ++c) {
        std::span<const std::uint32_t> lits = conds[c];
        out.conds.lits.insert(out.conds.lits.end(), lits.begin(), lits.end());
        out.conds.close();
      }
      out.cond_off.push_back(static_cast<std::uint32_t>(out.conds.size()));
    }
  }

  /// Record every prepared rule with positive literals as a join entry and
  /// index its literals by (signature, first argument).
  void freeze_entries(GroundBase& base) const {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> pivots;
    for (const PreparedRule& pr : prepared_) {
      if (pr.pos.empty()) continue;
      auto e = static_cast<std::uint32_t>(base.entry_rule.size());
      base.entry_rule.push_back(static_cast<std::uint32_t>(pr.rule_index));
      base.entry_elem.push_back(pr.elem);
      for (const Literal* l : pr.pos) pivots.emplace_back(pivot_key_of(l->atom), e);
    }
    std::sort(pivots.begin(), pivots.end());
    pivots.erase(std::unique(pivots.begin(), pivots.end()), pivots.end());
    for (const auto& [key, e] : pivots) {
      base.pivot_key.push_back(key);
      base.pivot_entry.push_back(e);
    }
  }

  /// Copy the rules a request can re-join (all but the consumed facts) and
  /// the #minimize elements: the base outlives the program it came from.
  void freeze_sources(GroundBase& base) const {
    for (const PreparedRule& pr : prepared_) {
      if (pr.elem >= 0) continue;
      base.source_ids.push_back(static_cast<std::uint32_t>(pr.rule_index));
      base.source_rules.push_back(*pr.rule);
      base.source_rules.back().note.clear();
    }
    base.minimizes = own_->minimizes();
  }

  // -- #minimize -------------------------------------------------------------

  /// Join `pos` from literal i on; `pivot` (SIZE_MAX for none) is already
  /// matched and the literals before it join base atoms only.
  template <typename K>
  void enumerate_condition(const std::vector<const Literal*>& pos,
                           std::size_t i, std::size_t pivot, Bindings& b,
                           K&& k) {
    if (i == pos.size()) {
      k();
      return;
    }
    if (i == pivot) {
      enumerate_condition(pos, i + 1, pivot, b, k);
      return;
    }
    std::uint32_t cap = pivot != SIZE_MAX && i < pivot ? base_rounds_ : kNoCap;
    match_literal(pos[i]->atom, b, cap, [&](Bindings&) {
      enumerate_condition(pos, i + 1, pivot, b, k);
    });
  }

  /// Ground the condition of `m`, calling `k(key)` per match with the
  /// packed symbolic condition (positive literals first, in order) in
  /// packed_.  Every match against the store, or with `fresh_only` only the
  /// matches holding a request-phase atom: the first such positive literal
  /// is the pivot, so each is enumerated once.
  template <typename K>
  void enumerate_minimize(const MinimizeElement& m, bool fresh_only, K&& k) {
    std::vector<const Literal*> pos;
    std::vector<const Literal*> neg;
    for (const Literal& l : m.condition) (l.positive ? pos : neg).push_back(&l);
    auto finish = [&](Bindings& b) {
      packed_.clear();
      for (const Literal* l : pos) {
        packed_.push_back(pack_lit(substitute(l->atom, b), true));
      }
      for (const Literal* l : neg) {
        packed_.push_back(pack_lit(substitute(l->atom, b), false));
      }
      Term wt = substitute(m.weight, b);
      if (wt.kind() != TermKind::Int || wt.int_value() < 0) {
        throw AspError(
            "minimize weight must ground to a non-negative integer, got " +
            wt.str_repr());
      }
      std::string tuple;
      for (Term t : m.tuple) tuple += substitute(t, b).str_repr() + ",";
      k(MinKey{wt.int_value(), m.priority, std::move(tuple)});
    };
    if (!fresh_only) {
      Bindings b;
      enumerate_condition(pos, 0, SIZE_MAX, b, [&]() { finish(b); });
      return;
    }
    for (std::size_t p = 0; p < pos.size(); ++p) {
      for (Term d : store_.fresh(pos[p]->atom.sig())) {
        Bindings b;
        if (!match(pos[p]->atom, d, b)) continue;
        enumerate_condition(pos, 0, p, b, [&]() { finish(b); });
      }
    }
  }

  /// Request mode: the #minimize matches the base does not hold — base
  /// elements matched through request-phase atoms, request elements in full.
  std::map<MinKey, std::vector<std::vector<std::uint32_t>>> request_minimize() {
    std::map<MinKey, std::vector<std::vector<std::uint32_t>>> groups;
    auto add = [&](MinKey key) { groups[std::move(key)].push_back(packed_); };
    for (const MinimizeElement& m : base_->minimizes) {
      enumerate_minimize(m, true, add);
    }
    for (const MinimizeElement& m : own_->minimizes()) {
      enumerate_minimize(m, false, add);
    }
    return groups;
  }

  // -- emission ------------------------------------------------------------

  /// Resolve a symbolic ground literal against the final possible/certain
  /// sets.  Returns: 1 literal true (drop it), -1 literal false (drop rule),
  /// 0 keep.
  int resolve(std::uint32_t l) const {
    Term a = lit_atom(l);
    bool cert = certain_.test(a);
    if (lit_positive(l)) {
      if (cert) return 1;
      return store_.contains(a) ? 0 : -1;
    }
    if (cert) return -1;
    return store_.contains(a) ? 0 : 1;
  }

  /// Resolve a full body; returns false when the body is unsatisfiable.
  bool resolve_body(std::span<const std::uint32_t> in, GroundProgram& out,
                    std::vector<GLit>& lits) const {
    for (std::uint32_t l : in) {
      int r = resolve(l);
      if (r == -1) return false;
      if (r == 1) continue;
      lits.push_back({out.intern_atom(lit_atom(l)), lit_positive(l)});
    }
    return true;
  }

  void emit(GroundProgram& out) {
    for (Term t : certain_list_) out.facts.push_back(out.intern_atom(t));
    for (auto [base, i] : one_shot_order(base_->rules, rules_)) {
      if (base) {
        emit_rule(base_->rules, i, base_->rule_origin, out);
      } else {
        emit_rule(rules_, i, rule_origin_, out);
      }
    }
    emit_choices(out);
    emit_minimize(out);
  }

  /// The base's and the request phase's statements interleaved by (round,
  /// rule position), base first on ties: the order a one-shot grounding of
  /// base[0, request_at) ∪ request ∪ base[request_at, end) instantiates
  /// them in, whenever the request leaves the base's derivations unchanged.
  /// Each entry is (from the base, index).
  template <typename Table>
  std::vector<std::pair<bool, std::uint32_t>> one_shot_order(
      const Table& base, const Table& req) const {
    auto key = [&](const Table& t, std::size_t i) {
      std::uint32_t rule = t.rule[i];
      int cls = rule >= nbase_ ? 1 : rule < request_at_ ? 0 : 2;
      return std::make_tuple(t.round[i], cls, rule);
    };
    std::vector<std::uint32_t> order(req.size());
    for (std::uint32_t j = 0; j < order.size(); ++j) order[j] = j;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t x, std::uint32_t y) {
                       return key(req, x) < key(req, y);
                     });
    std::vector<std::pair<bool, std::uint32_t>> out;
    out.reserve(base.size() + req.size());
    std::size_t i = 0;
    for (std::uint32_t j : order) {
      while (i < base.size() && !(key(req, j) < key(base, i))) {
        out.emplace_back(true, static_cast<std::uint32_t>(i++));
      }
      out.emplace_back(false, j);
    }
    for (; i < base.size(); ++i) {
      out.emplace_back(true, static_cast<std::uint32_t>(i));
    }
    return out;
  }

  /// Origins are recorded in lockstep with the tables, so emission
  /// re-aligns them with the *emitted* rule/choice indexes.
  void emit_rule(const RuleTable& t, std::size_t i,
                 const std::vector<Provenance::Origin>& origins,
                 GroundProgram& out) {
    Term head = t.head[i];
    if (head.valid() && certain_.test(head)) return;  // already a fact
    GRule gr;
    if (!resolve_body(t.body[i], out, gr.body)) return;
    gr.has_head = head.valid();
    if (gr.has_head) gr.head = out.intern_atom(head);
    out.rules.push_back(std::move(gr));
    if (prov_) prov_->rule_origin.push_back(origins[i]);
    if (gprof_) ++gprof_->per_rule[t.rule[i]].emitted_rules;
  }

  /// Choice instances in one-shot order; base instances carry their
  /// elements pre-grouped.  Request-phase elements join their instance by
  /// key — possibly a base instance, when a request fact widens an element
  /// condition — after its base elements.
  void emit_choices(GroundProgram& out) {
    const std::size_t nb = base_->choices.size();
    std::vector<std::uint32_t> owner = owners(choices_, elems_);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> extra;  // (choice, elem)
    for (std::size_t j = 0; j < elems_.size(); ++j) {
      std::uint32_t c = base_->find_choice(elems_.choice[j]);
      if (c == GroundBase::kNone && owner[j] != GroundBase::kNone) {
        c = static_cast<std::uint32_t>(nb + owner[j]);
      }
      if (c != GroundBase::kNone) {
        extra.emplace_back(c, static_cast<std::uint32_t>(j));
      }
    }
    std::stable_sort(extra.begin(), extra.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto [is_base, i] : one_shot_order(base_->choices, choices_)) {
      const ChoiceTable& t = is_base ? base_->choices : choices_;
      GChoice gc;
      if (!resolve_body(t.body[i], out, gc.body)) continue;
      const Rule& r = rule_at(t.rule[i]);
      gc.lower = r.head.lower;
      gc.upper = r.head.upper;
      auto add_elem = [&](Term atom, std::span<const std::uint32_t> cond) {
        GChoiceElem ge;
        if (!resolve_body(cond, out, ge.condition)) return;
        ge.atom = out.intern_atom(atom);
        gc.elements.push_back(std::move(ge));
      };
      if (is_base) {
        for (std::uint32_t e = base_->elem_off[i]; e < base_->elem_off[i + 1];
             ++e) {
          add_elem(base_->elem_atom[e], base_->elem_cond[e]);
        }
      }
      auto c = static_cast<std::uint32_t>(is_base ? i : nb + i);
      auto [lo, hi] = std::equal_range(
          extra.begin(), extra.end(), std::make_pair(c, 0u),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      for (auto it = lo; it != hi; ++it) {
        add_elem(elems_.atom[it->second], elems_.cond[it->second]);
      }
      out.choices.push_back(std::move(gc));
      if (prov_) {
        prov_->choice_origin.push_back(is_base ? base_->choice_origin[i]
                                               : choice_origin_[i]);
      }
      if (gprof_) ++gprof_->per_rule[t.rule[i]].emitted_choices;
    }
  }

  /// Merge the base's sorted groups with the request's new matches; a
  /// group is emitted when at least one of its conditions survives.
  void emit_minimize(GroundProgram& out) {
    auto t0 = std::chrono::steady_clock::now();
    if (gprof_) join_slot_ = &gprof_->minimize_join_candidates;
    auto added = request_minimize();
    const MinGroups& base = base_->minimize;
    std::size_t g = 0;
    auto it = added.begin();
    while (g < base.size() || it != added.end()) {
      // Which side holds the next key (both on a tie).
      bool take_base = false;
      bool take_added = false;
      if (it == added.end()) {
        take_base = true;
      } else if (g == base.size()) {
        take_added = true;
      } else {
        const auto& [w, p, tuple] = it->first;
        auto bkey = std::make_tuple(base.weight[g], base.priority[g],
                                    base.tuple_at(g));
        auto akey = std::make_tuple(w, p, std::string_view(tuple));
        take_base = !(akey < bkey);
        take_added = !(bkey < akey);
      }
      GMinTerm term;
      if (take_base) {
        term.weight = base.weight[g];
        term.priority = base.priority[g];
        term.tuple_repr = std::string(base.tuple_at(g));
        for (std::uint32_t c = base.cond_off[g]; c < base.cond_off[g + 1]; ++c) {
          std::vector<GLit> lits;
          if (resolve_body(base.conds[c], out, lits)) {
            term.conditions.push_back(std::move(lits));
          }
        }
        ++g;
      }
      if (take_added) {
        term.weight = std::get<0>(it->first);
        term.priority = std::get<1>(it->first);
        term.tuple_repr = std::get<2>(it->first);
        for (const std::vector<std::uint32_t>& cond : it->second) {
          std::vector<GLit> lits;
          if (resolve_body(cond, out, lits)) {
            term.conditions.push_back(std::move(lits));
          }
        }
        ++it;
      }
      // A tuple with any empty (trivially true) condition is a constant
      // cost; it still participates so that reported costs match ASP
      // semantics.
      if (!term.conditions.empty()) out.minimize.push_back(std::move(term));
    }
    if (gprof_) {
      join_slot_ = nullptr;
      gprof_->minimize_seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    }
  }

  GroundOptions opts_;
  AtomStore store_;  // membership == "possible"
  const GroundBase* base_ = nullptr;  // request mode only
  const Program* own_;                // the program this run seeds/prepares
  std::uint32_t nbase_;               // own_'s first global rule index
  std::size_t request_at_;            // see GroundBase::request_at
  std::size_t seeds_before_ = 0;      // base facts of rules < request_at_
  std::uint32_t base_rounds_ = 0;     // request mode: the base's rounds
  // Request mode: one-shot round of every atom the request added (its
  // facts: 0), see instance_round().
  std::unordered_map<std::uint32_t, std::uint32_t> fresh_round_;
  std::vector<PreparedRule> prepared_;
  std::unordered_map<std::uint32_t, PreparedRule> base_prepared_;
  std::unordered_set<const Rule*> consumed_;  // facts turned into seeds
  TermFlags certain_;
  std::vector<Term> certain_list_;
  TermFlags always_;  // base mode: certain under every request
  std::vector<Term> seeds_;
  U64Set seen_instances_;
  U64Set seen_bindings_;
  RuleTable rules_;
  ChoiceTable choices_;
  ElemTable elems_;
  std::vector<Literal> body_;           // scratch: one ground body
  std::vector<Literal> cond_;           // scratch: one element condition
  std::vector<std::uint32_t> packed_;   // scratch: one minimize condition
  std::shared_ptr<Provenance> prov_;  // null unless record_provenance
  std::shared_ptr<GroundProfile> gprof_;  // null unless profile
  // While non-null, match_literal adds its candidate-scan work here; the
  // fixpoint points it at the active rule's counter (profile_begin/_end).
  std::uint64_t* join_slot_ = nullptr;
  std::vector<Provenance::Origin> rule_origin_;    // || rules_
  std::vector<Provenance::Origin> choice_origin_;  // || choices_
  std::size_t iterations_ = 0;
  std::uint32_t round_ = 0;  // current fixpoint round (stamps new atoms)
};

}  // namespace

std::shared_ptr<const GroundBase> ground_base(const Program& program,
                                              const GroundOptions& opts,
                                              std::size_t request_at) {
  return Grounder(program, opts, request_at).freeze();
}

GroundProgram ground_request(const GroundBase& base, const Program& request,
                             const GroundOptions& opts) {
  return Grounder(base, request, opts).emit_request();
}

std::size_t ground_base_bytes(const GroundBase& base) { return base.bytes(); }

GroundProgram ground(const Program& program, const GroundOptions& opts) {
  std::shared_ptr<const GroundBase> base = ground_base(program, opts);
  GroundProgram out = ground_request(*base, Program{}, opts);
  out.stats.seconds += base->stats.seconds;
  return out;
}

GroundProgram ground_reference(const Program& program) {
  return ground(program, GroundOptions::reference());
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
