#include "src/asp/term.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/support/error.hpp"

namespace splice::asp {

namespace detail {
std::atomic<const TermData* const*> g_term_pages{nullptr};

void throw_invalid_term() {
  throw AspError("dereference of invalid Term handle");
}
}  // namespace detail

namespace {

using detail::TermData;

/// Final avalanche (splitmix64's): both halves of the result depend on every
/// input bit, so the high half can serve as a hash fragment while the low bits
/// of the same fragment pick the probe start.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t key_hash(TermKind kind, std::int64_t iv, std::uint32_t name_id,
                       std::span<const Term> args) {
  std::uint64_t h = static_cast<std::uint64_t>(kind) * 0x9e3779b97f4a7c15ULL;
  h = (h ^ static_cast<std::uint64_t>(iv)) * 1099511628211ULL;
  h = (h ^ name_id) * 1099511628211ULL;
  for (Term t : args) h = (h ^ t.id()) * 1099511628211ULL;
  return mix64(h ^ args.size());
}

std::uint64_t name_hash(std::string_view name) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (unsigned char c : name) h = (h ^ c) * 1099511628211ULL;
  return mix64(h);
}

/// Flat open-addressing index from a key to a dense id, with a lock-free
/// read side.  Each slot is one atomic 64-bit word packing the key's 32-bit
/// hash fragment (high half) and id + 1 (low half; 0 marks an empty slot),
/// so a probe compares hash words and consults the caller's key store only
/// on a fragment match.  The fragment alone picks the probe start, so growth
/// re-places words without touching the key store.
///
/// find() takes no lock: an acquire load of the table pointer, then acquire
/// loads of the slots.  insert() must run under the owner's writer lock and
/// publishes each slot with a release store, after the caller has written
/// the keyed data — so a reader that sees the slot also sees that data.  On
/// growth the new table is published with a release store and the
/// superseded one is retired into a keep-alive list (as PagedStore keeps
/// its directories): a reader still probing it sees a consistent, merely
/// stale table, and a miss there sends the caller to the locked re-probe.
class FlatIndex {
 public:
  static constexpr std::uint32_t kMissing = 0xffffffffu;

  FlatIndex() { publish(kInitialSlots); }

  /// Id of the key with hash `hash` for which `same(id)` holds, or kMissing.
  template <typename Same>
  std::uint32_t find(std::uint64_t hash, Same&& same) const {
    const Slots* t = table_.load(std::memory_order_acquire);
    auto frag = static_cast<std::uint32_t>(hash >> 32);
    for (std::size_t i = frag & t->mask;; i = (i + 1) & t->mask) {
      std::uint64_t word = t->slots[i].load(std::memory_order_acquire);
      if (word == 0) return kMissing;
      if (static_cast<std::uint32_t>(word >> 32) == frag) {
        auto id = static_cast<std::uint32_t>(word) - 1;
        if (same(id)) return id;
      }
    }
  }

  /// Add a key known to be absent.  Writer lock held.
  void insert(std::uint64_t hash, std::uint32_t id) {
    if ((count_ + 1) * 2 > tables_.back()->mask + 1) {
      publish((tables_.back()->mask + 1) * 2);
    }
    place(*tables_.back(), (hash & 0xffffffff00000000ULL) | (id + 1ULL),
          std::memory_order_release);
    ++count_;
  }

 private:
  static constexpr std::size_t kInitialSlots = 1024;

  struct Slots {
    std::size_t mask;
    std::unique_ptr<std::atomic<std::uint64_t>[]> slots;
  };

  static void place(Slots& t, std::uint64_t word, std::memory_order order) {
    std::size_t i = (word >> 32) & t.mask;
    while (t.slots[i].load(std::memory_order_relaxed) != 0) {
      i = (i + 1) & t.mask;
    }
    t.slots[i].store(word, order);
  }

  /// Build a table of `n` slots holding every current word, then publish it.
  void publish(std::size_t n) {
    auto t = std::make_unique<Slots>(
        Slots{n - 1, std::make_unique<std::atomic<std::uint64_t>[]>(n)});
    if (!tables_.empty()) {
      const Slots& old = *tables_.back();
      for (std::size_t i = 0; i <= old.mask; ++i) {
        std::uint64_t word = old.slots[i].load(std::memory_order_relaxed);
        if (word != 0) place(*t, word, std::memory_order_relaxed);
      }
    }
    table_.store(t.get(), std::memory_order_release);
    tables_.push_back(std::move(t));  // back() is live; the rest are retired
  }

  std::atomic<const Slots*> table_{nullptr};
  std::vector<std::unique_ptr<Slots>> tables_;
  std::size_t count_ = 0;
};

/// Append-only arena for argument spans: fixed-size chunks, so handed-out
/// spans stay valid while the arena grows.
class ArgArena {
 public:
  std::span<const Term> store(std::span<const Term> args) {
    if (args.empty()) return {};
    if (chunks_.empty() || used_ + args.size() > kChunk) {
      std::size_t cap = std::max(args.size(), kChunk);
      chunks_.push_back(std::make_unique<Term[]>(cap));
      used_ = 0;
    }
    Term* out = chunks_.back().get() + used_;
    for (std::size_t i = 0; i < args.size(); ++i) out[i] = args[i];
    used_ += args.size();
    return {out, args.size()};
  }

 private:
  static constexpr std::size_t kChunk = 1 << 14;
  std::vector<std::unique_ptr<Term[]>> chunks_;
  std::size_t used_ = 0;
};

/// Append-only paged storage with a lock-free read side.  Elements live in
/// fixed-size pages (stable addresses); a snapshot directory of page
/// pointers is republished atomically whenever a page is added, and
/// superseded directories are retired into a keep-alive list instead of
/// freed, so a reader holding a stale directory pointer can still resolve
/// every id published before it loaded the pointer.  Writers must hold the
/// table lock; readers need no lock as long as the id they dereference
/// reached them through a synchronized channel.
template <typename T, std::uint32_t PageShift>
class PagedStore {
 public:
  static constexpr std::uint32_t kMask = (1u << PageShift) - 1;

  /// Append under the writer lock; returns the slot for the new element.
  T& append(std::size_t id) {
    std::size_t page = id >> PageShift;
    if (page == pages_.size()) {
      pages_.push_back(std::make_unique<T[]>(kMask + 1));
      auto dir = std::make_unique<const T*[]>(pages_.size());
      for (std::size_t i = 0; i < pages_.size(); ++i) dir[i] = pages_[i].get();
      dir_.store(dir.get(), std::memory_order_release);
      retired_.push_back(std::move(dir));
    }
    return pages_[page][id & kMask];
  }

  /// Lock-free read of a previously published element.
  const T& at(std::size_t id) const {
    return dir_.load(std::memory_order_acquire)[id >> PageShift][id & kMask];
  }

  const std::atomic<const T* const*>& dir() const { return dir_; }
  std::atomic<const T* const*>& dir() { return dir_; }

 private:
  std::vector<std::unique_ptr<T[]>> pages_;
  std::vector<std::unique_ptr<const T*[]>> retired_;  // superseded directories
  std::atomic<const T* const*> dir_{nullptr};
};

// Global interning table.  Append-only; TermData entries live in fixed-size
// pages whose addresses are stable across growth (the page directory backing
// `detail::g_term_pages` is republished under the lock whenever a page is
// added), and argument spans live in the chunked arena.  Entries never
// mutate after insertion.  A lookup that finds an existing name or term
// takes no lock (FlatIndex::find); only a miss takes `mu_`, re-probes and
// inserts.  The engine is single-threaded per solve, but the concretizer
// pool and the parallel repository auditor intern across worker threads, so
// every read path must be data-race-free (TSan-clean).  Ids are assigned in
// insertion order under the lock, so they stay dense.
class Table {
 public:
  static Table& instance() {
    static Table t;
    return t;
  }

  std::uint32_t intern(TermKind kind, std::int64_t iv, std::string_view name,
                       std::span<const Term> args) {
    std::uint64_t nh = name_hash(name);
    std::uint32_t name_id = find_name(nh, name);
    if (name_id != FlatIndex::kMissing) {
      return intern_named(kind, iv, name_id, args);
    }
    std::lock_guard<std::mutex> lock(mu_);
    name_id = intern_name_locked(nh, name);
    return intern_locked(key_hash(kind, iv, name_id, args), kind, iv, name_id,
                         args);
  }

  /// Intern a term whose name is already interned as `name_id` — no string
  /// hashing.  Term::fun_like reaches it directly with its prototype's name.
  std::uint32_t intern_named(TermKind kind, std::int64_t iv,
                             std::uint32_t name_id,
                             std::span<const Term> args) {
    std::uint64_t h = key_hash(kind, iv, name_id, args);
    std::uint32_t id = find_term(h, kind, iv, name_id, args);
    if (id != FlatIndex::kMissing) return id;
    std::lock_guard<std::mutex> lock(mu_);
    return intern_locked(h, kind, iv, name_id, args);
  }

  std::string_view name_of(std::uint32_t name_id) const {
    return names_.at(name_id);
  }

  SigId intern_sig(std::string_view name, std::size_t arity) {
    std::lock_guard<std::mutex> lock(mu_);
    return intern_sig_locked(intern_name_locked(name_hash(name), name), arity);
  }

  std::string sig_str(SigId sig) const {
    const auto& [name_id, arity] = sigs_.at(sig);
    return std::string(names_.at(name_id)) + "/" + std::to_string(arity);
  }

  std::size_t size() const { return count_.load(std::memory_order_acquire); }

 private:
  std::uint32_t find_term(std::uint64_t h, TermKind kind, std::int64_t iv,
                          std::uint32_t name_id,
                          std::span<const Term> args) const {
    return index_.find(h, [&](std::uint32_t id) {
      const TermData& d = terms_.at(id);
      return d.kind == kind && d.int_value == iv && d.name_id == name_id &&
             std::equal(args.begin(), args.end(), d.args, d.args + d.nargs);
    });
  }

  std::uint32_t find_name(std::uint64_t h, std::string_view name) const {
    return name_index_.find(
        h, [&](std::uint32_t id) { return names_.at(id) == name; });
  }

  std::uint32_t intern_locked(std::uint64_t h, TermKind kind, std::int64_t iv,
                              std::uint32_t name_id,
                              std::span<const Term> args) {
    std::uint32_t found = find_term(h, kind, iv, name_id, args);
    if (found != FlatIndex::kMissing) return found;
    TermData data;
    data.kind = kind;
    data.int_value = iv;
    data.name_id = name_id;
    std::span<const Term> stored_args = args_.store(args);
    data.args = stored_args.data();
    data.nargs = static_cast<std::uint32_t>(stored_args.size());
    data.sig = intern_sig_locked(
        name_id, kind == TermKind::Fun ? stored_args.size() : 0);
    data.ground = kind != TermKind::Var;
    for (Term a : stored_args) data.ground = data.ground && a.is_ground();
    auto id = static_cast<std::uint32_t>(count_.load(std::memory_order_relaxed));
    terms_.append(id) = data;
    detail::g_term_pages.store(
        terms_.dir().load(std::memory_order_relaxed), std::memory_order_release);
    count_.store(id + 1, std::memory_order_release);
    index_.insert(h, id);
    return id;
  }

  std::uint32_t intern_name_locked(std::uint64_t h, std::string_view name) {
    std::uint32_t found = find_name(h, name);
    if (found != FlatIndex::kMissing) return found;
    name_storage_.emplace_back(name);
    auto id = static_cast<std::uint32_t>(name_count_);
    names_.append(id) = name_storage_.back();
    ++name_count_;
    name_index_.insert(h, id);
    return id;
  }

  SigId intern_sig_locked(std::uint32_t name_id, std::size_t arity) {
    std::uint64_t key =
        (static_cast<std::uint64_t>(name_id) << 32) | static_cast<std::uint32_t>(arity);
    auto it = sig_ids_.find(key);
    if (it != sig_ids_.end()) return it->second;
    auto id = static_cast<SigId>(sig_count_);
    sigs_.append(id) = {name_id, static_cast<std::uint32_t>(arity)};
    ++sig_count_;
    sig_ids_.emplace(key, id);
    return id;
  }

  std::mutex mu_;
  ArgArena args_;
  PagedStore<TermData, detail::kTermPageShift> terms_;
  std::atomic<std::size_t> count_{0};
  FlatIndex index_;  // term key -> term id

  std::deque<std::string> name_storage_;          // stable string bodies
  PagedStore<std::string_view, 10> names_;        // name_id -> spelling
  std::size_t name_count_ = 0;
  FlatIndex name_index_;  // spelling -> name_id

  PagedStore<std::pair<std::uint32_t, std::uint32_t>, 10> sigs_;  // (name, arity)
  std::size_t sig_count_ = 0;
  std::unordered_map<std::uint64_t, SigId> sig_ids_;
};

}  // namespace

Term Term::integer(std::int64_t value) {
  return Term(Table::instance().intern(TermKind::Int, value, {}, {}));
}

Term Term::sym(std::string_view name) {
  return Term(Table::instance().intern(TermKind::Sym, 0, name, {}));
}

Term Term::str(std::string_view text) {
  return Term(Table::instance().intern(TermKind::Str, 0, text, {}));
}

Term Term::var(std::string_view name) {
  return Term(Table::instance().intern(TermKind::Var, 0, name, {}));
}

Term Term::fun(std::string_view name, std::span<const Term> args) {
  return Term(Table::instance().intern(TermKind::Fun, 0, name, args));
}

Term Term::fun(std::string_view name, std::initializer_list<Term> args) {
  return fun(name, std::span<const Term>(args.begin(), args.size()));
}

Term Term::fun_like(Term proto, std::span<const Term> args) {
  return Term(Table::instance().intern_named(TermKind::Fun, 0,
                                                proto.data_().name_id, args));
}

std::string_view Term::name() const {
  return Table::instance().name_of(data_().name_id);
}

std::string Term::signature() const {
  return Table::instance().sig_str(data_().sig);
}

SigId Term::intern_sig(std::string_view name, std::size_t arity) {
  return Table::instance().intern_sig(name, arity);
}

std::string Term::sig_str(SigId sig) { return Table::instance().sig_str(sig); }

std::size_t Term::interned_count() { return Table::instance().size(); }

std::string Term::str_repr() const {
  const TermData& d = data_();
  switch (d.kind) {
    case TermKind::Int: return std::to_string(d.int_value);
    case TermKind::Sym:
    case TermKind::Var: return std::string(name());
    case TermKind::Str: return "\"" + std::string(name()) + "\"";
    case TermKind::Fun: {
      std::string out(name());
      out.push_back('(');
      for (std::size_t i = 0; i < d.nargs; ++i) {
        if (i) out.push_back(',');
        out += d.args[i].str_repr();
      }
      out.push_back(')');
      return out;
    }
  }
  return "?";
}

int Term::compare(Term a, Term b) {
  if (a == b) return 0;
  const TermData& da = a.data_();
  const TermData& db = b.data_();
  if (da.kind != db.kind) {
    return static_cast<int>(da.kind) < static_cast<int>(db.kind) ? -1 : 1;
  }
  switch (da.kind) {
    case TermKind::Int:
      return da.int_value < db.int_value ? -1 : (da.int_value > db.int_value ? 1 : 0);
    case TermKind::Sym:
    case TermKind::Str:
    case TermKind::Var: {
      if (da.name_id == db.name_id) return 0;
      int c = a.name().compare(b.name());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case TermKind::Fun: {
      if (da.name_id != db.name_id) {
        int c = a.name().compare(b.name());
        if (c != 0) return c < 0 ? -1 : 1;
      }
      if (da.nargs != db.nargs) return da.nargs < db.nargs ? -1 : 1;
      for (std::size_t i = 0; i < da.nargs; ++i) {
        int ac = compare(da.args[i], db.args[i]);
        if (ac != 0) return ac;
      }
      return 0;
    }
  }
  return 0;
}

Term Bindings::lookup(Term var) const {
  for (const auto& [v, t] : entries_) {
    if (v == var) return t;
  }
  return Term();
}

bool Bindings::bind(Term var, Term value) {
  Term existing = lookup(var);
  if (existing.valid()) return existing == value;
  entries_.emplace_back(var, value);
  return true;
}

Term substitute(Term t, const Bindings& b) {
  if (t.is_ground()) return t;
  switch (t.kind()) {
    case TermKind::Var: {
      Term bound = b.lookup(t);
      return bound.valid() ? bound : t;
    }
    case TermKind::Fun: {
      std::span<const Term> args = t.args();
      // Small stack buffer: encoding arities are tiny (<= 8); fall back to
      // the heap only for pathological terms.
      Term stack_buf[8];
      std::vector<Term> heap_buf;
      Term* out = stack_buf;
      if (args.size() > 8) {
        heap_buf.resize(args.size());
        out = heap_buf.data();
      }
      bool changed = false;
      for (std::size_t i = 0; i < args.size(); ++i) {
        out[i] = substitute(args[i], b);
        changed = changed || out[i] != args[i];
      }
      if (!changed) return t;
      return Term::fun_like(t, std::span<const Term>(out, args.size()));
    }
    default: return t;
  }
}

bool match(Term pattern, Term value, Bindings& b) {
  if (pattern == value) return true;
  switch (pattern.kind()) {
    case TermKind::Var: return b.bind(pattern, value);
    case TermKind::Fun: {
      if (value.kind() != TermKind::Fun || pattern.sig() != value.sig()) {
        return false;
      }
      std::span<const Term> pa = pattern.args();
      std::span<const Term> va = value.args();
      for (std::size_t i = 0; i < pa.size(); ++i) {
        if (!match(pa[i], va[i], b)) return false;
      }
      return true;
    }
    default: return false;  // distinct constants
  }
}

void collect_vars(Term t, std::vector<Term>& out) {
  if (t.is_ground()) return;
  if (t.kind() == TermKind::Var) {
    for (Term v : out) {
      if (v == t) return;
    }
    out.push_back(t);
    return;
  }
  if (t.kind() == TermKind::Fun) {
    for (Term a : t.args()) collect_vars(a, out);
  }
}

}  // namespace splice::asp
