#include "load/misc_models.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace simsweep::load {

// ---------------------------------------------------------------- Constant

namespace {

class ConstantSource final : public LoadSource {
 public:
  explicit ConstantSource(int competitors) : competitors_(competitors) {}

  LoadState begin(sim::SimTime) override { return {competitors_, true}; }

  [[nodiscard]] sim::SimTime next_change() const override {
    return sim::kTimeInfinity;
  }

  LoadState advance() override { return {competitors_, true}; }

 private:
  int competitors_;
};

}  // namespace

ConstantModel::ConstantModel(int competitors) : competitors_(competitors) {
  if (competitors < 0)
    throw std::invalid_argument("ConstantModel: negative competitor count");
}

std::unique_ptr<LoadSource> ConstantModel::make_source(sim::Rng) const {
  return std::make_unique<ConstantSource>(competitors_);
}

std::string ConstantModel::describe() const {
  return "constant;competitors=" + std::to_string(competitors_);
}

// ------------------------------------------------------------------- Trace

namespace {

class TraceSource final : public LoadSource {
 public:
  TraceSource(const std::vector<sim::Sample>* trace, double period,
              double phase)
      : trace_(trace), period_(period), phase_(phase) {}

  LoadState begin(sim::SimTime now) override {
    // Position the cursor at the first sample at or after the phase; the
    // value in effect at the phase is that of the preceding sample.
    index_ = 0;
    while (index_ < trace_->size() && (*trace_)[index_].time <= phase_) ++index_;
    const double initial =
        index_ == 0 ? trace_->back().value : (*trace_)[index_ - 1].value;
    offset_ = now - phase_;  // trace time + offset == sim time
    aim(now);
    return state(initial);
  }

  [[nodiscard]] sim::SimTime next_change() const override { return next_; }

  LoadState advance() override {
    const double value = (*trace_)[index_].value;
    ++index_;
    aim(next_);
    return state(value);
  }

 private:
  /// Aims at the cursor's sample from `now`, the time of the previous
  /// change, wrapping to the next period at the trace's end.  A sample
  /// already behind `now` is taken at `now`.
  void aim(sim::SimTime now) {
    if (index_ >= trace_->size()) {
      index_ = 0;
      offset_ += period_;
    }
    const double when = (*trace_)[index_].time + offset_;
    next_ = now + std::max(0.0, when - now);
  }

  [[nodiscard]] static LoadState state(double value) {
    return {static_cast<int>(std::lround(value)), true};
  }

  const std::vector<sim::Sample>* trace_;
  double period_;
  double phase_;
  double offset_ = 0.0;
  std::size_t index_ = 0;
  sim::SimTime next_ = sim::kTimeInfinity;
};

}  // namespace

TraceModel::TraceModel(std::vector<sim::Sample> trace, double period_s,
                       bool random_phase)
    : trace_(std::move(trace)), period_(period_s), random_phase_(random_phase) {
  if (trace_.empty()) throw std::invalid_argument("TraceModel: empty trace");
  if (!std::is_sorted(trace_.begin(), trace_.end(),
                      [](const sim::Sample& a, const sim::Sample& b) {
                        return a.time < b.time;
                      }))
    throw std::invalid_argument("TraceModel: trace must be time-sorted");
  if (trace_.front().time < 0.0)
    throw std::invalid_argument("TraceModel: negative sample time");
  if (period_ < trace_.back().time || period_ <= 0.0)
    throw std::invalid_argument("TraceModel: period must cover the trace");
}

std::unique_ptr<LoadSource> TraceModel::make_source(sim::Rng rng) const {
  const double phase = random_phase_ ? rng.uniform(0.0, period_) : 0.0;
  return std::make_unique<TraceSource>(&trace_, period_, phase);
}

std::string TraceModel::describe() const {
  std::string out = "trace;period_s=" + describe_number(period_) +
                    ";random_phase=" + (random_phase_ ? "1" : "0") +
                    ";samples=";
  for (const sim::Sample& s : trace_) {
    out += describe_number(s.time);
    out += ':';
    out += describe_number(s.value);
    out += ',';
  }
  return out;
}

// --------------------------------------------------------------- Composite

namespace {

class CompositeOnOffSource final : public LoadSource {
 public:
  CompositeOnOffSource(const std::vector<OnOffParams>& params, sim::Rng rng) {
    parts_.reserve(params.size());
    for (std::size_t i = 0; i < params.size(); ++i)
      parts_.push_back(Part{params[i], rng.split(i), false, 0.0, 0});
  }

  LoadState begin(sim::SimTime now) override {
    for (Part& part : parts_) {
      const OnOffParams& p = part.params;
      const double pi = p.p + p.q > 0.0 ? p.p / (p.p + p.q) : 0.0;
      part.on = p.stationary_start && part.rng.bernoulli(pi);
      draw_next(part, now);
    }
    return state();
  }

  [[nodiscard]] sim::SimTime next_change() const override {
    return parts_[due_].next;
  }

  LoadState advance() override {
    Part& part = parts_[due_];
    part.on = !part.on;
    draw_next(part, part.next);
    return state();
  }

 private:
  struct Part {
    OnOffParams params;
    sim::Rng rng;
    bool on;
    sim::SimTime next;   ///< time of this part's next flip
    std::uint64_t draw;  ///< when that flip was drawn: breaks time ties
  };

  /// Draws `part`'s next flip from `now` and re-elects the due part.
  void draw_next(Part& part, sim::SimTime now) {
    const double exit_p = part.on ? part.params.q : part.params.p;
    part.next =
        now + sample_geometric_sojourn(part.rng, exit_p, part.params.step_s);
    part.draw = draws_++;
    due_ = 0;
    for (std::size_t i = 1; i < parts_.size(); ++i) {
      const Part& q = parts_[i];
      const Part& best = parts_[due_];
      if (q.next < best.next || (q.next == best.next && q.draw < best.draw))
        due_ = i;
    }
  }

  [[nodiscard]] LoadState state() const {
    int on_count = 0;
    for (const Part& part : parts_)
      if (part.on) ++on_count;
    return {on_count, true};
  }

  std::vector<Part> parts_;
  std::size_t due_ = 0;  ///< part whose flip comes next
  std::uint64_t draws_ = 0;
};

}  // namespace

CompositeOnOffModel::CompositeOnOffModel(std::vector<OnOffParams> sources)
    : sources_(std::move(sources)) {
  if (sources_.empty())
    throw std::invalid_argument("CompositeOnOffModel: no sources");
  for (const OnOffParams& p : sources_) {
    const OnOffModel validator{p};  // reuse the ON/OFF parameter validation
    (void)validator;
  }
}

std::unique_ptr<LoadSource> CompositeOnOffModel::make_source(
    sim::Rng rng) const {
  return std::make_unique<CompositeOnOffSource>(sources_, rng);
}

std::string CompositeOnOffModel::describe() const {
  std::string out = "composite_onoff;sources=";
  for (const OnOffParams& p : sources_) {
    out += OnOffModel(p).describe();
    out += '|';
  }
  return out;
}

}  // namespace simsweep::load
