// In-memory spans recorded by perfbench_driver around its own calls
// into the program (parse, run_sweep, each profiled cell, read_journal,
// artifact writes, probes).  Spans of one run share a run id; they are
// kept in memory and written out once, when the run ends, as a Chrome
// trace-event file (open it in Perfetto).
//
// Single-threaded: only perfbench_driver's main thread records.  Cells run on
// worker threads but are added after the sweep, from the profiler.
#pragma once

#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  using Id = std::size_t;  ///< 1-based; 0 means "no parent"

  struct Span {
    std::string name;
    Id parent = 0;
    std::size_t worker = 0;  ///< 0 = the main thread
    double start_s = 0.0;    ///< since the recorder's construction
    double end_s = 0.0;
  };

  explicit SpanRecorder(std::string run_id)
      : run_id_(std::move(run_id)), epoch_(std::chrono::steady_clock::now()) {}

  /// Seconds since construction (steady clock).
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  Id begin(std::string name, Id parent = 0);
  void end(Id id);

  /// Adds a finished span measured elsewhere (a profiled cell).
  Id add(std::string name, Id parent, std::size_t worker, double start_s,
         double end_s);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Duration minus the part of the span's interval its children cover.
  [[nodiscard]] double self_s(Id id) const;

  void write_chrome_json(std::ostream& os) const;

 private:
  std::string run_id_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Records a span for its scope; inert when the recorder is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name,
             SpanRecorder::Id parent = 0)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->begin(std::move(name), parent)
                                : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] SpanRecorder::Id id() const noexcept { return id_; }

 private:
  SpanRecorder* recorder_;
  SpanRecorder::Id id_;
};

}  // namespace perfbench
