#include "perfbench/spans.hpp"

#include <algorithm>
#include <fstream>

#include "src/support/chrome.hpp"

namespace perfbench {

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  // Spans nest strictly (Scopes close in reverse order), so the time a
  // span's children cover is the sum of their durations.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) covered[s.parent] += s.end - s.start;
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[s.name];
    ++t.count;
    t.seconds += s.end - s.start;
    t.self += std::max(0.0, s.end - s.start - covered[i]);
  }
  return out;
}

void SpanLog::write_chrome(const std::filesystem::path& path,
                           const splice::json::Value& stamp) const {
  splice::json::Array events;
  for (const Span& s : spans_) {
    splice::json::Object args;
    if (s.request >= 0) args["request"] = static_cast<std::int64_t>(s.request);
    args["parent"] = s.parent;
    std::string layer = s.name.substr(0, s.name.find('.'));
    events.push_back(splice::chrome::complete_event(
        s.name, layer, s.start * 1e6, (s.end - s.start) * 1e6, 0,
        std::move(args)));
  }
  splice::json::Value doc = splice::chrome::document(std::move(events));
  doc["otherData"] = stamp;
  std::filesystem::create_directories(path.parent_path());
  std::ofstream(path) << doc.dump() << "\n";
}

}  // namespace perfbench
