#include "src/concretize/pool.hpp"

#include <atomic>
#include <chrono>

#include "src/support/error.hpp"
#include "src/support/parallel.hpp"
#include "src/support/trace.hpp"

namespace splice::concretize {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

std::vector<BatchItem> ConcretizerPool::concretize_batch(
    const std::vector<Request>& requests, BatchStats* stats) const {
  trace::Span span("batch", "pool");
  span.attr("requests", requests.size());
  std::size_t workers = parallel_workers(requests.size(), opts_.jobs);
  span.attr("workers", workers);

  trace::MetricsRegistry& m = trace::Tracer::global().metrics();
  m.add("pool/batches");
  m.add("pool/requests", static_cast<std::int64_t>(requests.size()));
  m.set_gauge("pool/workers", static_cast<double>(workers));
  m.set_gauge("pool/queue_depth", static_cast<double>(requests.size()));

  std::vector<BatchItem> items(requests.size());
  std::atomic<std::size_t> remaining{requests.size()};
  parallel_for_each(requests.size(), opts_.jobs, [&](std::size_t i) {
    auto req0 = std::chrono::steady_clock::now();
    BatchItem& item = items[i];
    try {
      item.result = concretizer_.concretize(requests[i]);
      item.ok = true;
    } catch (const Error& e) {
      // Unsatisfiable (or otherwise failed) requests fail their own slot
      // only; non-Error exceptions propagate out of parallel_for_each.
      item.error = e.what();
    }
    item.seconds = seconds_since(req0);
    m.observe("pool/request_seconds", item.seconds);
    m.set_gauge("pool/queue_depth",
                static_cast<double>(remaining.fetch_sub(1) - 1));
  });

  BatchStats out;
  out.requests = requests.size();
  for (const BatchItem& item : items) {
    if (item.ok) {
      ++out.succeeded;
    } else {
      ++out.failed;
    }
  }
  out.workers = workers;
  span.attr("succeeded", out.succeeded);
  span.attr("failed", out.failed);
  // The batch's one clock: the wall time is the pool/batch span's.
  const double wall = span.end();
  out.seconds = wall;
  out.throughput_rps =
      wall > 0 ? static_cast<double>(requests.size()) / wall : 0.0;
  m.add("pool/failed_requests", static_cast<std::int64_t>(out.failed));
  m.set_gauge("pool/throughput_rps", out.throughput_rps);
  if (stats != nullptr) *stats = out;
  return items;
}

}  // namespace splice::concretize
