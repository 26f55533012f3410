// Chrome trace-event JSON construction (the chrome://tracing / Perfetto
// format), shared by every exporter: the tracer's chrome_trace() and the
// flight recorder's dump conversion (splice flight chrome).  One place owns
// the event-object shape and the document envelope so the two stay
// loadable by the same viewers.
#pragma once

#include <cstdint>
#include <string>

#include "src/support/json.hpp"

namespace splice::chrome {

/// A complete ("X") event: a span of `dur_us` starting at `ts_us`.
/// `args` (optional) becomes the event's args object when non-empty.
json::Value complete_event(std::string name, std::string category,
                           double ts_us, double dur_us, std::int64_t tid,
                           json::Object args = {});

/// A thread-scoped instant ("i") event at `ts_us`.
json::Value instant_event(std::string name, std::string category,
                          double ts_us, std::int64_t tid,
                          json::Object args = {});

/// Wrap the events in the trace-event document envelope
/// ({"displayTimeUnit": "ms", "traceEvents": [...]}).
json::Value document(json::Array events);

}  // namespace splice::chrome
