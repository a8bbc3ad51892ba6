#include "spans.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

#include "obs/json.hpp"

namespace perfbench {

SpanRecorder::Id SpanRecorder::begin(std::string name, Id parent) {
  const double t = now();
  return add(std::move(name), parent, 0, t, t);
}

void SpanRecorder::end(Id id) {
  if (id != 0 && id <= spans_.size()) spans_[id - 1].end_s = now();
}

SpanRecorder::Id SpanRecorder::add(std::string name, Id parent,
                                   std::size_t worker, double start_s,
                                   double end_s) {
  spans_.push_back({std::move(name), parent, worker, start_s, end_s});
  return spans_.size();
}

double SpanRecorder::self_s(Id id) const {
  if (id == 0 || id > spans_.size()) return 0.0;
  const Span& span = spans_[id - 1];
  std::vector<std::pair<double, double>> children;
  for (const Span& s : spans_)
    if (s.parent == id)
      children.emplace_back(std::max(s.start_s, span.start_s),
                            std::min(s.end_s, span.end_s));
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = span.start_s;
  for (const auto& [lo, hi] : children) {
    const double from = std::max(lo, reach);
    if (hi > from) {
      covered += hi - from;
      reach = hi;
    }
  }
  return (span.end_s - span.start_s) - covered;
}

void SpanRecorder::write_chrome_json(std::ostream& os) const {
  using simsweep::obs::write_json_number;
  using simsweep::obs::write_json_string;
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"run_id\":";
  write_json_string(os, run_id_);
  os << "},\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i != 0) os << ',';
    os << "{\"ph\":\"X\",\"pid\":1,\"tid\":";
    write_json_number(os, static_cast<std::uint64_t>(s.worker));
    os << ",\"name\":";
    write_json_string(os, s.name);
    os << ",\"ts\":";
    write_json_number(os, s.start_s * 1e6);
    os << ",\"dur\":";
    write_json_number(os, (s.end_s - s.start_s) * 1e6);
    os << ",\"args\":{\"run_id\":";
    write_json_string(os, run_id_);
    os << ",\"id\":";
    write_json_number(os, static_cast<std::uint64_t>(i + 1));
    os << ",\"parent\":";
    write_json_number(os, static_cast<std::uint64_t>(s.parent));
    os << "}}";
  }
  os << "]}\n";
}

}  // namespace perfbench
