// Hash-consed terms for the mini-ASP engine.
//
// Terms model the full first-order vocabulary the concretizer encoding needs:
// integers, symbolic constants (`mpich`), quoted strings ("1.4.2"), variables
// (`Hash`), and compound function terms (`node("example")`).  Every distinct
// term is interned exactly once in a global arena, so equality is an integer
// comparison and terms are trivially copyable 32-bit handles — the grounder
// manipulates millions of them.
//
// Interning is arena-based end to end: names live in an interned name table
// (one id per distinct spelling), argument vectors live in chunked,
// address-stable arenas (spans stay valid forever), and every term carries a
// precomputed interned *signature id* (`name/arity`) so the grounder's
// per-predicate bookkeeping never touches strings.  The arena is append-only;
// handles are stable for the lifetime of the process.  Names and terms are
// found through flat open-addressing indexes whose slots are single atomic
// words (hash fragment + id): interning a term that already exists takes no
// lock, and only a miss takes the writer mutex to re-probe and insert.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace splice::asp {

enum class TermKind : std::uint8_t {
  Int,   ///< integer constant
  Sym,   ///< symbolic constant: lowercase identifier, e.g. `mpich`
  Str,   ///< quoted string constant, e.g. "3.4.3" (distinct from Sym)
  Var,   ///< variable, e.g. `Hash` (uppercase identifier)
  Fun,   ///< compound term, e.g. node("example")
};

/// Interned predicate signature (`name/arity`) handle.  Signature ids are
/// small dense integers assigned in first-intern order; all per-predicate
/// indexing in the grounder keys on them instead of on "name/arity" strings.
using SigId = std::uint32_t;

class Term;

namespace detail {

/// Flat, trivially-copyable term payload.  Argument vectors live in a
/// chunked arena (stable addresses), names are interned ids, and the
/// signature id is precomputed so the grounder never builds strings.
struct TermData {
  TermKind kind;
  bool ground;
  std::uint32_t name_id = 0;   // Sym/Str/Var/Fun spelling (Int: the empty name)
  SigId sig = 0;               // interned (name_id, arity)
  std::int64_t int_value = 0;  // Int
  const Term* args = nullptr;  // Fun argument span, arena-backed
  std::uint32_t nargs = 0;
};

inline constexpr std::uint32_t kTermPageShift = 12;  // 4096 terms per page
inline constexpr std::uint32_t kTermPageMask = (1u << kTermPageShift) - 1;

/// Page directory of the global term arena.  Pages are fixed-size and
/// address-stable; the directory pointer is republished by the interning
/// table whenever a page is added (superseded directories are kept alive, so
/// a stale pointer still resolves every previously published id).  Exposed
/// so the hot accessors below inline to two dependent loads — the grounder
/// reads term fields hundreds of millions of times per resolve and an
/// out-of-line call per access dominates ground time.  The directory pointer
/// is atomic so threads that received ids through a synchronized channel
/// (the intern lock, a task queue) can dereference concurrently with
/// interning on other threads; the acquire load compiles to a plain load on
/// x86/ARM.
extern std::atomic<const TermData* const*> g_term_pages;

[[noreturn]] void throw_invalid_term();

}  // namespace detail

/// An interned term handle.  Default-constructed handles are invalid and
/// must not be dereferenced; valid handles come from the factory functions.
class Term {
 public:
  Term() = default;

  static Term integer(std::int64_t value);
  static Term sym(std::string_view name);
  static Term str(std::string_view text);
  static Term var(std::string_view name);
  static Term fun(std::string_view name, std::span<const Term> args);
  static Term fun(std::string_view name, std::initializer_list<Term> args);

  /// Intern a compound term with the same functor (name and arity) as
  /// `proto`, which must be a Fun of arity args.size().  Skips the name-string
  /// hash lookup `fun()` pays — the substitution hot path rebuilds millions
  /// of atoms whose functor it already holds interned.
  static Term fun_like(Term proto, std::span<const Term> args);

  bool valid() const { return id_ != kInvalid; }
  std::uint32_t id() const { return id_; }
  /// The handle whose id() is `id`: flat snapshots store terms as 32-bit
  /// ids and rebuild handles from them.  `id` must come from id().
  static Term from_id(std::uint32_t id) { return Term(id); }

  TermKind kind() const;
  bool is_ground() const;  ///< contains no variables

  std::int64_t int_value() const;        ///< requires kind() == Int
  std::string_view name() const;         ///< Sym/Var/Fun name, Str text
  std::span<const Term> args() const;    ///< Fun arguments; empty otherwise

  /// Interned signature id of this term ("name/arity"; non-Fun terms have
  /// arity 0).  Precomputed at intern time — O(1), no allocation.
  SigId sig() const;

  /// Predicate signature "name/arity" used for diagnostics; for non-Fun
  /// atoms this is "name/0".
  std::string signature() const;

  /// Intern a signature id for `name`/`arity` without creating a term.
  /// The id matches `sig()` of any term with that name and arity.
  static SigId intern_sig(std::string_view name, std::size_t arity);

  /// Render the signature string of an interned signature id.
  static std::string sig_str(SigId sig);

  /// Render in ASP syntax (strings quoted, functions parenthesized).
  std::string str_repr() const;

  /// Total order: by kind, then value; used for canonical sorting.
  static int compare(Term a, Term b);

  /// Number of terms interned so far (ids are dense in [0, count)); used by
  /// the grounder to size id-indexed flag arrays.
  static std::size_t interned_count();

  friend bool operator==(Term a, Term b) { return a.id_ == b.id_; }
  friend bool operator!=(Term a, Term b) { return a.id_ != b.id_; }
  friend bool operator<(Term a, Term b) { return compare(a, b) < 0; }

 private:
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  explicit Term(std::uint32_t id) : id_(id) {}

  const detail::TermData& data_() const;

  std::uint32_t id_ = kInvalid;

  friend class TermTable;
};

inline const detail::TermData& Term::data_() const {
  if (id_ == kInvalid) detail::throw_invalid_term();
  return detail::g_term_pages.load(std::memory_order_acquire)
      [id_ >> detail::kTermPageShift][id_ & detail::kTermPageMask];
}

inline TermKind Term::kind() const { return data_().kind; }
inline bool Term::is_ground() const { return data_().ground; }
inline std::int64_t Term::int_value() const { return data_().int_value; }
inline SigId Term::sig() const { return data_().sig; }

inline std::span<const Term> Term::args() const {
  const detail::TermData& d = data_();
  return {d.args, d.nargs};
}

struct TermHash {
  std::size_t operator()(Term t) const noexcept { return t.id(); }
};

/// Substitution mapping variable terms to ground terms.  Small-vector-style
/// flat map: bindings are few (< 16 per rule) so linear scans win.
class Bindings {
 public:
  /// Returns the binding for `var` or an invalid Term.
  Term lookup(Term var) const;
  /// Bind `var` to `value`; returns false if already bound to something else.
  bool bind(Term var, Term value);
  void clear() { entries_.clear(); }
  std::size_t size() const { return entries_.size(); }
  /// Truncate to the first `n` bindings (backtracking in the grounder).
  void truncate(std::size_t n) { entries_.resize(n); }
  /// The (variable, value) pairs in insertion order.  Note the order depends
  /// on the join order that produced the bindings, not on the rule text.
  const std::vector<std::pair<Term, Term>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<Term, Term>> entries_;
};

/// Apply `b` to `t`, replacing bound variables.  Unbound variables are left
/// in place (the caller checks groundness where required).  Subterms that no
/// binding touches are returned as-is (no re-interning).
Term substitute(Term t, const Bindings& b);

/// First-order matching of a possibly-variable `pattern` against a ground
/// `value`, extending `b`.  Returns false (and may leave partial bindings;
/// caller truncates) when the match fails.
bool match(Term pattern, Term value, Bindings& b);

/// Collect the distinct variables occurring in `t`, in first-occurrence order.
void collect_vars(Term t, std::vector<Term>& out);

}  // namespace splice::asp
