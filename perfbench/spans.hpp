// Spans recorded by the benchmark around its calls into libsplice's layers.
//
// The library is not instrumented for this: each span brackets one public
// call (BuildCache::push, Concretizer::concretize, Installer::rewire, ...)
// from the outside.  Spans stay in memory and are written once, at the end
// of a traced run.  With tracing off a Scope only reads the clock, which
// the untraced run needs anyway for its end-to-end timings.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "src/support/json.hpp"

namespace perfbench {

struct Span {
  std::string name;
  double start = 0;  ///< seconds since the log was created
  double end = 0;
  int parent = -1;   ///< index of the enclosing span, -1 at top level
  long request = -1; ///< request id shared by a request's spans, -1 if none
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled)
      : enabled_(enabled), t0_(std::chrono::steady_clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
        .count();
  }

  /// Times one call; with tracing on it is also recorded as a span, nested
  /// under the innermost Scope still open.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name, long request = -1)
        : log_(log), start_(log.now()) {
      if (!log_.enabled_) return;
      index_ = static_cast<int>(log_.spans_.size());
      log_.spans_.push_back(
          {std::move(name), start_, start_, log_.open_, request});
      log_.open_ = index_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { close(); }

    /// End the span now; returns its duration.  Idempotent.
    double close() {
      if (!closed_) {
        closed_ = true;
        seconds_ = log_.now() - start_;
        if (index_ >= 0) {
          log_.spans_[index_].end = start_ + seconds_;
          log_.open_ = log_.spans_[index_].parent;
        }
      }
      return seconds_;
    }

   private:
    SpanLog& log_;
    double start_;
    int index_ = -1;
    bool closed_ = false;
    double seconds_ = 0;
  };

  struct Totals {
    std::size_t count = 0;
    double seconds = 0;  ///< summed durations
    double self = 0;     ///< summed durations minus the time children cover
  };
  /// Per span name: count, total and self time.
  std::map<std::string, Totals> totals() const;

  /// Write every span as a Chrome trace-event JSON document, with `stamp`
  /// under "otherData".
  void write_chrome(const std::filesystem::path& path,
                    const splice::json::Value& stamp) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace perfbench
