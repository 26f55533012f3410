// Concretization throughput: reachability-pruned reuse compilation and
// parallel batch serving (DESIGN.md §15).
//
// Two questions, two series:
//
//   single_request  (seconds, lower is better)
//     The Fig. 7 public-buildcache cell — one root, mpich forbidden,
//     splicing on — solved cold (fresh concretizer per iteration) with
//     reachability pruning on vs off, interleaved A/B within every rep so
//     machine drift hits both sides equally.  Pruning slices the ~20k-node
//     public cache down to the request's package closure before any fact is
//     compiled.
//
//   throughput  (requests/sec, higher is better)
//     The RADIUSS batch workload served by a ConcretizerPool over one
//     shared warm concretizer at --jobs 1/4/8, against the local (~200
//     node) and public caches.  Values are whole-batch requests/sec.
//
// Env knobs: SPLICE_BENCH_REPS (default 5; the committed A/B uses 10),
// SPLICE_BENCH_PUBLIC (default 2000; the paper-scale claim uses 20000),
// SPLICE_BENCH_ROOTS (single-request roots, default "visit"),
// SPLICE_BENCH_JOBS (default "1,4,8").
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/concretize/pool.hpp"

namespace {

using namespace splice;
using namespace splice::bench;
using concretize::Concretizer;
using concretize::ConcretizerOptions;
using concretize::ConcretizerPool;
using concretize::PoolOptions;
using concretize::Request;

/// SPLICE_BENCH_JOBS: comma-separated worker counts.
std::vector<std::size_t> env_jobs() {
  std::vector<std::size_t> out;
  for (const std::string& field :
       env_list("SPLICE_BENCH_JOBS", {"1", "4", "8"})) {
    std::optional<std::uint64_t> n = parse_count(field);
    if (!n) {
      warn_knob("SPLICE_BENCH_JOBS", std::getenv("SPLICE_BENCH_JOBS"));
      return {1, 4, 8};
    }
    out.push_back(*n);
  }
  return out;
}

ConcretizerOptions splice_opts(bool prune) {
  ConcretizerOptions opts;
  opts.encoding = concretize::ReuseEncoding::Indirect;
  opts.enable_splicing = true;
  opts.prune_reuse = prune;
  return opts;
}

/// The batch the pool serves: every RADIUSS root, MPI-dependent ones
/// steered to the mpiabi provider (the splice-heavy production mix).
std::vector<Request> batch_requests() {
  std::vector<Request> out;
  for (const std::string& root : workload::radiuss_roots()) {
    out.emplace_back(workload::depends_on_mpi(root) ? root + " ^mpiabi"
                                                    : root);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  std::size_t reps = env_size("SPLICE_BENCH_REPS", 5);
  std::size_t public_nodes = env_size("SPLICE_BENCH_PUBLIC", 2000);
  std::vector<std::string> roots = env_roots({"visit"});
  std::vector<std::size_t> jobs_levels = env_jobs();

  repo::Repository repo = workload::radiuss_repo(0);
  struct CacheConfig {
    std::string name;
    std::vector<spec::Spec> specs;
  };
  std::vector<CacheConfig> caches;
  caches.push_back({"local", workload::local_cache_specs(repo)});
  caches.push_back({"public", workload::public_cache_specs(repo, public_nodes)});

  std::printf("throughput: reps=%zu, public=%zu node specs, jobs:", reps,
              workload::distinct_nodes(caches.back().specs));
  for (std::size_t j : jobs_levels) std::printf(" %zu", j);
  std::printf("\n");

  Samples samples;
  samples.mark_higher_is_better("throughput", "requests_per_second");

  // --- single_request: pruned vs unpruned, interleaved A/B ----------------
  for (const CacheConfig& cache : caches) {
    for (const std::string& root : roots) {
      Request request(root);
      request.forbidden.push_back("mpich");
      for (std::size_t rep = 0; rep < reps; ++rep) {
        for (bool prune : {true, false}) {
          Concretizer c(repo, splice_opts(prune));
          c.add_reusable_all(cache.specs);
          double seconds = time_call(
              [&] { (void)c.concretize(request); }, "single_request");
          samples.add("single_request",
                      cache.name + "/" + root +
                          (prune ? "/pruned" : "/unpruned"),
                      seconds);
        }
      }
    }
  }

  // --- throughput: shared warm concretizer, jobs sweep --------------------
  std::vector<Request> batch = batch_requests();
  for (const CacheConfig& cache : caches) {
    Concretizer c(repo, splice_opts(true));
    c.add_reusable_all(cache.specs);
    // Steady-state serving: warm the slice compile caches once, untimed.
    ConcretizerPool(c, PoolOptions{1}).concretize_batch(batch);
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (std::size_t jobs : jobs_levels) {
        ConcretizerPool pool(c, PoolOptions{jobs});
        concretize::BatchStats stats;
        std::vector<concretize::BatchItem> items =
            pool.concretize_batch(batch, &stats);
        for (const concretize::BatchItem& item : items) {
          if (!item.ok) {
            std::fprintf(stderr, "throughput: request failed: %s\n",
                         item.error.c_str());
            return 1;
          }
        }
        samples.add("throughput",
                    cache.name + "/jobs" + std::to_string(jobs),
                    stats.throughput_rps);
        samples.add("batch_seconds",
                    cache.name + "/jobs" + std::to_string(jobs),
                    stats.seconds);
      }
    }
  }

  // --- console summary ----------------------------------------------------
  std::printf("\n=== single request (cold), pruned vs unpruned ===\n");
  for (const CacheConfig& cache : caches) {
    for (const std::string& root : roots) {
      auto pruned =
          samples.stat("single_request", cache.name + "/" + root + "/pruned");
      auto unpruned = samples.stat("single_request",
                                   cache.name + "/" + root + "/unpruned");
      std::printf("  %-28s pruned %8.4fs  unpruned %8.4fs  (min %0.4f vs "
                  "%0.4f: %.1fx)\n",
                  (cache.name + "/" + root).c_str(), pruned.mean,
                  unpruned.mean, pruned.min, unpruned.min,
                  pruned.min > 0 ? unpruned.min / pruned.min : 0.0);
    }
  }
  std::printf("\n=== batch throughput (%zu requests, warm) ===\n",
              batch.size());
  for (const CacheConfig& cache : caches) {
    for (std::size_t jobs : jobs_levels) {
      auto st =
          samples.stat("throughput", cache.name + "/jobs" + std::to_string(jobs));
      std::printf("  %-28s %8.2f req/s (max %.2f)\n",
                  (cache.name + "/jobs" + std::to_string(jobs)).c_str(),
                  st.mean, st.max);
    }
  }

  return write_bench_json("throughput", samples) ? 0 : 1;
}
