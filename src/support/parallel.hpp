// Minimal deterministic work distribution for CPU-bound task lists.
//
// parallel_for_each runs `fn(i)` for every index in [0, n) across up to
// `jobs` worker threads pulling from a shared atomic counter.  Callers own
// determinism by writing results into per-index slots and merging in index
// order afterwards — the helper guarantees only that every index runs
// exactly once.  With jobs <= 1 (or n <= 1) the loop runs inline on the
// calling thread, so single-threaded behavior is byte-identical to a plain
// for loop and costs no thread spawn.
//
// Exceptions: the first exception thrown by any fn(i) is captured and
// rethrown on the calling thread after all workers join; remaining indexes
// may or may not run (workers stop picking up new work once an exception is
// recorded).
//
// jobs == 0 means "one worker per hardware thread" (auto-detect via
// std::thread::hardware_concurrency, clamped to at least 1).
#pragma once

#include <cstddef>
#include <functional>

namespace splice {

/// The ceiling on a --jobs flag: more workers than this is a usage error.
inline constexpr std::size_t kMaxJobs = 1024;

/// Number of workers that would actually be used for `n` tasks at the
/// requested job count (clamped to [1, n]); jobs == 0 auto-detects one
/// worker per hardware thread.
std::size_t parallel_workers(std::size_t n, std::size_t jobs);

void parallel_for_each(std::size_t n, std::size_t jobs,
                       const std::function<void(std::size_t)>& fn);

}  // namespace splice
