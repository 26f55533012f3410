#include "src/asp/sat.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "src/support/flight.hpp"

namespace splice::asp::sat {

namespace {
/// Luby restart sequence: 1,1,2,1,1,2,4,... (MiniSat's formulation).
std::uint64_t luby(std::uint64_t x) {
  std::uint64_t size = 1, seq = 0;
  while (size < x + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    --seq;
    x = x % size;
  }
  return 1ULL << seq;
}
constexpr std::uint64_t kRestartUnit = 64;
/// A sat.conflicts event marks every kConflictTick-th conflict.
constexpr std::uint64_t kConflictTick = 2048;
constexpr double kVarDecay = 0.95;
}  // namespace

json::Value SatStats::to_json() const {
  json::Object o;
  o["decisions"] = decisions;
  o["conflicts"] = conflicts;
  o["propagations"] = propagations;
  o["restarts"] = restarts;
  o["learned"] = learned;
  o["deleted"] = deleted;
  return json::Value(std::move(o));
}

Solver::Solver() = default;

void Solver::enable_profiling(bool on) {
  profile_ = on ? std::make_unique<SatProfile>() : nullptr;
}

SatProfile::OriginCost& Solver::origin_cost(Origin o) {
  if (o == kNoOrigin) return profile_->unattributed;
  if (profile_->per_origin.size() <= o) profile_->per_origin.resize(o + 1);
  return profile_->per_origin[o];
}

std::size_t Solver::num_clauses() const {
  std::size_t n = 0;
  for (const Clause& c : clauses_) {
    if (!c.dead) ++n;
  }
  return n;
}

void Solver::reserve(std::size_t vars, std::size_t clauses,
                     std::size_t lits) {
  assigns_.reserve(vars);
  level_.reserve(vars);
  reason_.reserve(vars);
  trail_pos_.reserve(vars);
  trail_.reserve(vars);
  activity_.reserve(vars);
  phase_.reserve(vars);
  model_.reserve(vars);
  seen_.reserve(vars);
  heap_pos_.reserve(vars);
  heap_.reserve(vars);
  watches_.reserve(2 * vars);
  pb_watches_.reserve(2 * vars);
  clauses_.reserve(clauses);
  lits_.reserve(lits);
}

Var Solver::new_var() {
  auto v = static_cast<Var>(assigns_.size());
  assigns_.push_back(Value::Undef);
  level_.push_back(0);
  reason_.push_back(kNoReason);
  trail_pos_.push_back(0);
  activity_.push_back(0);
  phase_.push_back(false);
  model_.push_back(false);
  seen_.push_back(false);
  heap_pos_.push_back(0xffffffffu);
  watches_.emplace_back();
  watches_.emplace_back();
  pb_watches_.emplace_back();
  pb_watches_.emplace_back();
  heap_insert(v);
  return v;
}

bool Solver::add_clause(std::span<const Lit> lits, Origin origin) {
  if (unsat_) return false;
  // Simplify against the level-0 assignment.  Sorted, a literal and its
  // negation (2v, 2v+1) sit side by side, so one pass finds tautologies.
  std::vector<Lit>& out = add_tmp_;
  out.assign(lits.begin(), lits.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  for (std::size_t i = 1; i < out.size(); ++i) {
    if (out[i] == negate(out[i - 1])) return true;  // tautology
  }
  std::size_t kept = 0;
  for (Lit l : out) {
    Value v = value(l);
    if (v == Value::True && level_[var_of(l)] == 0) return true;  // satisfied
    if (v == Value::False && level_[var_of(l)] == 0) continue;    // falsified
    out[kept++] = l;
  }
  out.resize(kept);
  if (out.empty()) {
    unsat_ = true;
    return false;
  }
  if (out.size() == 1) {
    if (!enqueue(out[0], kNoReason) || propagate() != kNoReason) {
      unsat_ = true;
      return false;
    }
    return true;
  }
  attach_clause(out, false, /*watch=*/true, origin);
  return true;
}

bool Solver::add_pb_le(std::vector<std::pair<Lit, std::int64_t>> terms,
                       std::int64_t bound, Origin origin) {
  if (unsat_) return false;
  PbConstraint pb;
  pb.bound = bound;
  pb.origin = origin;
  for (auto& [l, w] : terms) {
    assert(w > 0);
    Value v = value(l);
    if (v == Value::False && level_[var_of(l)] == 0) continue;  // never counts
    if (v == Value::True && level_[var_of(l)] == 0) {
      pb.bound -= w;  // always counts
      continue;
    }
    pb.terms.emplace_back(l, w);
    pb.max_weight = std::max(pb.max_weight, w);
  }
  if (pb.bound < 0) {
    unsat_ = true;
    return false;
  }
  auto idx = static_cast<std::uint32_t>(pbs_.size());
  for (std::uint32_t i = 0; i < pb.terms.size(); ++i) {
    pb_watches_[pb.terms[i].first].push_back(PbWatch{idx, i});
  }
  std::vector<Lit> to_negate;
  for (auto [l, w] : pb.terms) {
    if (w > pb.bound) to_negate.push_back(negate(l));
  }
  pbs_.push_back(std::move(pb));
  for (Lit nl : to_negate) {
    if (!enqueue(nl, kNoReason)) {
      unsat_ = true;
      return false;
    }
  }
  if (propagate() != kNoReason) {
    unsat_ = true;
    return false;
  }
  return true;
}

Solver::ClauseRef Solver::attach_clause(std::span<const Lit> lits,
                                        bool learned, bool watch,
                                        Origin origin) {
  assert(lits.size() >= 2 || !watch);
  if (lits_.size() + lits.size() > std::numeric_limits<std::uint32_t>::max() ||
      clauses_.size() >= kPbTag) {
    throw std::length_error("sat::Solver: clause store full");
  }
  auto ref = static_cast<ClauseRef>(clauses_.size());
  Clause c;
  c.offset = static_cast<std::uint32_t>(lits_.size());
  c.size = static_cast<std::uint32_t>(lits.size());
  c.learned = learned;
  c.origin = origin;
  c.activity = var_inc_;
  c.dead = !watch;  // unwatched clauses exist only as analyze() inputs
  lits_.insert(lits_.end(), lits.begin(), lits.end());
  if (watch) {
    watches_[lits[0]].push_back(ref);
    watches_[lits[1]].push_back(ref);
  }
  clauses_.push_back(c);
  if (learned) ++stats_.learned;
  return ref;
}

bool Solver::enqueue(Lit l, ClauseRef reason) {
  Value v = value(l);
  if (v == Value::True) return true;
  if (v == Value::False) return false;
  Var x = var_of(l);
  assigns_[x] = is_pos(l) ? Value::True : Value::False;
  level_[x] = static_cast<std::uint32_t>(trail_lim_.size());
  reason_[x] = reason;
  trail_pos_[x] = static_cast<std::uint32_t>(trail_.size());
  phase_[x] = is_pos(l);
  trail_.push_back(l);
  // PB bookkeeping is symmetric with backtrack(): every literal on the trail
  // has had its weights added exactly once.
  for (PbWatch w : pb_watches_[l]) {
    pbs_[w.pb].sum += pbs_[w.pb].terms[w.term].second;
  }
  return true;
}

Solver::ClauseRef Solver::propagate() {
  while (qhead_ < trail_.size()) {
    Lit p = trail_[qhead_++];
    ++stats_.propagations;
    if (profile_) {
      // Attribute the pop to the clause or PB that implied p; decisions,
      // assumptions and reason-less enqueues land in `unattributed`.
      ClauseRef r = reason_[var_of(p)];
      Origin o = r == kNoReason      ? kNoOrigin
                 : (r & kPbTag) != 0 ? pbs_[r & ~kPbTag].origin
                                     : clauses_[r].origin;
      ++origin_cost(o).propagations;
    }
    Lit false_lit = negate(p);
    std::vector<ClauseRef>& wl = watches_[false_lit];
    std::size_t i = 0, j = 0;
    ClauseRef confl = kNoReason;
    while (i < wl.size()) {
      ClauseRef ref = wl[i++];
      const Clause& c = clauses_[ref];
      if (c.dead) continue;
      Lit* lits = lits_of(c);
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      assert(lits[1] == false_lit);
      if (value(lits[0]) == Value::True) {
        wl[j++] = ref;
        continue;
      }
      bool moved = false;
      for (std::size_t k = 2; k < c.size; ++k) {
        if (value(lits[k]) != Value::False) {
          std::swap(lits[1], lits[k]);
          watches_[lits[1]].push_back(ref);
          moved = true;
          break;
        }
      }
      if (moved) continue;
      wl[j++] = ref;
      if (!enqueue(lits[0], ref)) {
        confl = ref;
        break;
      }
    }
    if (confl != kNoReason) {
      while (i < wl.size()) wl[j++] = wl[i++];
      wl.resize(j);
      return confl;
    }
    wl.resize(j);

    ClauseRef pb_confl = propagate_pb(p);
    if (pb_confl != kNoReason) return pb_confl;
  }
  return kNoReason;
}

std::vector<Lit> Solver::pb_conflict_clause(const PbConstraint& pb) const {
  std::vector<Lit> out;
  for (auto [l, w] : pb.terms) {
    if (value(l) == Value::True && level_[var_of(l)] > 0) {
      out.push_back(negate(l));
    }
  }
  return out;
}

Solver::ClauseRef Solver::propagate_pb(Lit p) {
  for (PbWatch w : pb_watches_[p]) {
    PbConstraint& pb = pbs_[w.pb];
    if (pb.sum > pb.bound) {
      std::vector<Lit> confl = pb_conflict_clause(pb);
      if (confl.empty()) {
        // Violation entirely from level-0 assignments: the instance is
        // unsatisfiable outright.
        unsat_ = true;
        const Lit absurd[] = {p, negate(p)};
        return attach_clause(absurd, true, /*watch=*/false, pb.origin);
      }
      // All literals of the conflict clause are currently false; it is
      // entailed by the PB constraint and handed to analyze() unwatched.
      return attach_clause(confl, true, /*watch=*/false, pb.origin);
    }
    // Strengthen: any unassigned term that would overflow must be false.
    // Above level 0 the literal carries a tagged reason that reason_of()
    // explains only if conflict analysis reaches it; at level 0 it needs
    // none.
    std::int64_t slack = pb.bound - pb.sum;
    if (slack < pb.max_weight) {
      ClauseRef reason = trail_lim_.empty() ? kNoReason : (kPbTag | w.pb);
      for (auto [l, tw] : pb.terms) {
        if (tw > slack && value(l) == Value::Undef) enqueue(negate(l), reason);
      }
    }
  }
  return kNoReason;
}

Solver::ClauseRef Solver::reason_of(Var v) {
  ClauseRef r = reason_[v];
  if (r == kNoReason || (r & kPbTag) == 0) return r;
  // The PB's true terms above level 0 that precede v on the trail are
  // exactly the ones counted when it strengthened v.  Later terms are
  // excluded: they may themselves depend on v.
  const PbConstraint& pb = pbs_[r & ~kPbTag];
  std::vector<Lit> lits{mk_lit(v, assigns_[v] == Value::True)};
  for (auto [l, w] : pb.terms) {
    Var x = var_of(l);
    if (value(l) == Value::True && level_[x] > 0 &&
        trail_pos_[x] < trail_pos_[v]) {
      lits.push_back(negate(l));
    }
  }
  r = attach_clause(lits, /*learned=*/false, /*watch=*/false, pb.origin);
  reason_[v] = r;
  return r;
}

void Solver::analyze(ClauseRef confl, std::vector<Lit>& learnt,
                     std::uint32_t& bt_level) {
  learnt.clear();
  learnt.push_back(0);  // placeholder for the asserting literal
  std::uint32_t counter = 0;
  Lit p = 0;
  bool p_valid = false;
  std::size_t idx = trail_.size();
  std::uint32_t cur_level = static_cast<std::uint32_t>(trail_lim_.size());
  std::vector<Var> to_clear;
  ancestry_.clear();

  ClauseRef reason_ref = confl;
  while (true) {
    assert(reason_ref != kNoReason);
    Clause& c = clauses_[reason_ref];
    if (c.learned) c.activity += var_inc_;
    if (profile_) {
      // Every clause resolved on the 1UIP chain participates in the
      // conflict; its origin also joins the learnt clause's ancestry.
      ++origin_cost(c.origin).participations;
      if (c.origin != kNoOrigin &&
          std::find(ancestry_.begin(), ancestry_.end(), c.origin) ==
              ancestry_.end()) {
        ancestry_.push_back(c.origin);
      }
    }
    std::size_t start = p_valid ? 1 : 0;
    const Lit* lits = lits_of(c);
    for (std::size_t k = start; k < c.size; ++k) {
      Lit q = lits[k];
      Var v = var_of(q);
      if (!seen_[v] && level_[v] > 0) {
        seen_[v] = true;
        to_clear.push_back(v);
        bump_var(v);
        if (level_[v] >= cur_level) {
          ++counter;
        } else {
          learnt.push_back(q);
        }
      }
    }
    while (!seen_[var_of(trail_[idx - 1])]) --idx;
    p = trail_[--idx];
    p_valid = true;
    seen_[var_of(p)] = false;
    reason_ref = reason_of(var_of(p));
    if (--counter == 0) break;
    // Reason clauses keep their implied literal at position 0; restore that
    // invariant defensively in case watch maintenance reordered it.
    if (reason_ref != kNoReason) {
      const Clause& rc = clauses_[reason_ref];
      Lit* rl = lits_of(rc);
      for (std::size_t k = 0; k < rc.size; ++k) {
        if (rl[k] == p) {
          std::swap(rl[0], rl[k]);
          break;
        }
      }
    }
  }
  learnt[0] = negate(p);

  bt_level = 0;
  if (learnt.size() > 1) {
    std::size_t max_i = 1;
    for (std::size_t k = 2; k < learnt.size(); ++k) {
      if (level_[var_of(learnt[k])] > level_[var_of(learnt[max_i])]) max_i = k;
    }
    std::swap(learnt[1], learnt[max_i]);
    bt_level = level_[var_of(learnt[1])];
  }
  for (Var v : to_clear) seen_[v] = false;
}

void Solver::backtrack(std::uint32_t target) {
  if (trail_lim_.size() <= target) return;
  std::size_t lim = trail_lim_[target];
  for (std::size_t i = trail_.size(); i-- > lim;) {
    Lit p = trail_[i];
    Var v = var_of(p);
    for (PbWatch w : pb_watches_[p]) {
      pbs_[w.pb].sum -= pbs_[w.pb].terms[w.term].second;
    }
    assigns_[v] = Value::Undef;
    reason_[v] = kNoReason;
    if (heap_pos_[v] == 0xffffffffu) heap_insert(v);
  }
  trail_.resize(lim);
  trail_lim_.resize(target);
  qhead_ = trail_.size();
}

void Solver::bump_var(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_pos_[v] != 0xffffffffu) heap_up(heap_pos_[v]);
}

void Solver::decay_activity() { var_inc_ /= kVarDecay; }

Lit Solver::pick_branch() {
  while (!heap_empty()) {
    Var v = heap_pop();
    if (assigns_[v] == Value::Undef) {
      return mk_lit(v, phase_[v]);
    }
  }
  return 0xffffffffu;
}

void Solver::reduce_db() {
  // Called at level 0 only.  Keep the more active half of learned clauses.
  std::vector<ClauseRef> learned;
  for (ClauseRef i = 0; i < clauses_.size(); ++i) {
    if (clauses_[i].learned && !clauses_[i].dead && clauses_[i].size > 2) {
      learned.push_back(i);
    }
  }
  if (learned.size() < num_learned_limit_) return;
  std::sort(learned.begin(), learned.end(), [&](ClauseRef a, ClauseRef b) {
    return clauses_[a].activity < clauses_[b].activity;
  });
  std::size_t kill = learned.size() / 2;
  for (std::size_t i = 0; i < kill; ++i) {
    clauses_[learned[i]].dead = true;
    ++stats_.deleted;
  }
  for (auto& wl : watches_) wl.clear();
  for (ClauseRef i = 0; i < clauses_.size(); ++i) {
    const Clause& c = clauses_[i];
    if (c.dead) continue;
    watches_[lits_of(c)[0]].push_back(i);
    watches_[lits_of(c)[1]].push_back(i);
  }
  num_learned_limit_ += num_learned_limit_ / 2;
}

Solver::Result Solver::solve() { return solve({}); }

Solver::Result Solver::solve(const std::vector<Lit>& assumptions) {
  final_core_.clear();
  if (unsat_) return Result::Unsat;
  assumption_mark_.assign(assigns_.size(), false);
  for (Lit a : assumptions) {
    if (var_of(a) < assigns_.size()) assumption_mark_[var_of(a)] = true;
  }
  Result r = search(assumptions);
  std::fill(assumption_mark_.begin(), assumption_mark_.end(), false);
  // Reusability contract (see header): every exit path leaves the solver at
  // decision level 0 with a drained propagation queue, so the next solve()
  // may run under different assumptions, and an assumption can be retired
  // by adding it (or its negation) as a unit clause.  Unconditional Unsat
  // latches unsat_ and may abandon the queue mid-conflict, which is fine:
  // all later calls return early above.
  assert(unsat_ || trail_lim_.empty());
  assert(unsat_ || qhead_ == trail_.size());
  return r;
}

/// MiniSat's analyzeFinal: called when placing assumption `p` found its
/// negation entailed by the earlier assumptions.  Walks the implication
/// graph backwards from the trail top and collects the assumption
/// *decisions* the entailment rests on; final_core_ receives `p` plus that
/// subset.  The walk skips level 0, whose literals depend on no
/// assumption.  Lazily explained PB propagations are explained here as in
/// analyze().
void Solver::analyze_final(Lit p) {
  final_core_.clear();
  final_core_.push_back(p);
  Var pv = var_of(p);
  if (trail_lim_.empty() || level_[pv] == 0) return;  // ¬p holds at level 0
  seen_[pv] = true;
  for (std::size_t i = trail_.size(); i-- > trail_lim_[0];) {
    Var x = var_of(trail_[i]);
    if (!seen_[x]) continue;
    seen_[x] = false;
    ClauseRef r = reason_of(x);
    if (r == kNoReason) {
      if (assumption_mark_[x]) final_core_.push_back(trail_[i]);
    } else {
      const Clause& c = clauses_[r];
      for (Lit q : std::span<const Lit>(lits_of(c), c.size)) {
        Var v = var_of(q);
        if (v != x && level_[v] > 0) seen_[v] = true;
      }
    }
  }
  seen_[pv] = false;
}

Solver::Result Solver::search(const std::vector<Lit>& assumptions) {
  backtrack(0);
  if (propagate() != kNoReason) {
    unsat_ = true;
    return Result::Unsat;
  }

  std::uint64_t conflicts_since_restart = 0;
  std::uint64_t restart_limit = kRestartUnit * luby(stats_.restarts);

  while (true) {
    ClauseRef confl = propagate();
    if (confl != kNoReason) {
      ++stats_.conflicts;
      ++conflicts_since_restart;
      if (profile_) ++origin_cost(clauses_[confl].origin).conflicts;
      if (stats_.conflicts % kConflictTick == 0) {
        flight::Recorder::global().emit(
            flight::EventKind::SatConflicts,
            static_cast<std::int64_t>(stats_.conflicts), 0, {},
            flight::Phase::Solve);
      }
      if (trail_lim_.empty() || unsat_) {
        unsat_ = true;
        return Result::Unsat;
      }
      std::vector<Lit> learnt;
      std::uint32_t bt_level = 0;
      analyze(confl, learnt, bt_level);
      // The learnt clause descends from every origin resolved on the 1UIP
      // chain (ancestry_); it carries the first as its representative so
      // propagation and conflict cost through it stays attributed.
      Origin rep = kNoOrigin;
      if (profile_) {
        ++profile_->learned_total;
        if (ancestry_.empty()) {
          ++profile_->learned_without_origin;
        } else {
          rep = ancestry_.front();
          for (Origin o : ancestry_) ++origin_cost(o).learned;
        }
      }
      backtrack(bt_level);
      if (learnt.size() == 1) {
        if (!enqueue(learnt[0], kNoReason)) {
          unsat_ = true;
          return Result::Unsat;
        }
      } else {
        ClauseRef ref =
            attach_clause(std::move(learnt), true, /*watch=*/true, rep);
        if (!enqueue(lits_of(clauses_[ref])[0], ref)) {
          unsat_ = true;
          return Result::Unsat;
        }
      }
      decay_activity();
      continue;
    }

    if (conflicts_since_restart >= restart_limit) {
      ++stats_.restarts;
      conflicts_since_restart = 0;
      restart_limit = kRestartUnit * luby(stats_.restarts);
      backtrack(0);
      reduce_db();
      flight::Recorder::global().emit(
          flight::EventKind::SatRestart,
          static_cast<std::int64_t>(stats_.conflicts), 0, {},
          flight::Phase::Solve);
      continue;
    }

    // Place pending assumptions as decisions (restarts and backjumps may
    // have unwound them; trail_lim_.size() tracks how many are in force).
    Lit next = 0xffffffffu;
    while (trail_lim_.size() < assumptions.size()) {
      Lit p = assumptions[trail_lim_.size()];
      Value v = value(p);
      if (v == Value::True) {
        // Already entailed: open a dummy level so the indexing holds.
        trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
      } else if (v == Value::False) {
        // Assumptions conflict with the database.  The database itself
        // stays satisfiable — extract the failed-assumption core from the
        // implication graph, then report Unsat without latching unsat_.
        analyze_final(p);
        backtrack(0);
        return Result::Unsat;
      } else {
        next = p;
        break;
      }
    }
    if (next == 0xffffffffu) {
      next = pick_branch();
      if (next == 0xffffffffu) {
        for (Var v = 0; v < assigns_.size(); ++v) {
          model_[v] = (assigns_[v] == Value::True);
        }
        backtrack(0);
        return Result::Sat;
      }
      ++stats_.decisions;
    }
    trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
    enqueue(next, kNoReason);
  }
}

std::vector<Lit> minimize_core(Solver& solver, std::vector<Lit> core,
                               std::uint64_t max_solves,
                               std::uint64_t* solves) {
  std::uint64_t spent = 0;
  std::size_t i = 0;
  while (i < core.size()) {
    if (max_solves != 0 && spent >= max_solves) break;
    std::vector<Lit> test = core;
    test.erase(test.begin() + static_cast<std::ptrdiff_t>(i));
    ++spent;
    if (solver.solve(test) == Solver::Result::Unsat) {
      if (solver.in_conflict()) {
        core.clear();
        break;
      }
      // Still Unsat without core[i]; adopt the solver's refined core,
      // which is a subset of `test` and may be smaller still.
      core = solver.final_core();
      i = 0;
    } else {
      ++i;  // core[i] is load-bearing
    }
  }
  if (solves != nullptr) *solves = spent;
  return core;
}

// ---- variable order heap --------------------------------------------------

void Solver::heap_insert(Var v) {
  heap_pos_[v] = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(v);
  heap_up(heap_.size() - 1);
}

Var Solver::heap_pop() {
  Var top = heap_[0];
  heap_pos_[top] = 0xffffffffu;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[heap_[0]] = 0;
    heap_down(0);
  }
  return top;
}

void Solver::heap_up(std::size_t i) {
  Var v = heap_[i];
  while (i > 0) {
    std::size_t parent = (i - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[v]) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = static_cast<std::uint32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<std::uint32_t>(i);
}

void Solver::heap_down(std::size_t i) {
  Var v = heap_[i];
  while (true) {
    std::size_t left = 2 * i + 1;
    if (left >= heap_.size()) break;
    std::size_t best = left;
    std::size_t right = left + 1;
    if (right < heap_.size() &&
        activity_[heap_[right]] > activity_[heap_[left]]) {
      best = right;
    }
    if (activity_[heap_[best]] <= activity_[v]) break;
    heap_[i] = heap_[best];
    heap_pos_[heap_[i]] = static_cast<std::uint32_t>(i);
    i = best;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<std::uint32_t>(i);
}

}  // namespace splice::asp::sat
