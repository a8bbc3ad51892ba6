#include "load/hyperexp.hpp"

#include <algorithm>
#include <compare>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

namespace simsweep::load {

namespace {

class HyperExpSource final : public LoadSource {
 public:
  HyperExpSource(const HyperExpParams& params, sim::Rng rng)
      : params_(params), rng_(rng) {}

  LoadState begin(sim::SimTime now) override {
    arrival_ = {now + gap(), draws_++};
    return state();
  }

  [[nodiscard]] sim::SimTime next_change() const override {
    return next().time;
  }

  LoadState advance() override {
    const Pending due = next();
    if (departures_.empty() || due != departures_.front()) {
      arrive(due.time);
      arrival_ = {due.time + gap(), draws_++};
    } else {
      std::pop_heap(departures_.begin(), departures_.end(), std::greater<>{});
      departures_.pop_back();
      --alive_;
    }
    return state();
  }

 private:
  /// A pending arrival or departure, ordered by time, then by when it was
  /// drawn.
  struct Pending {
    sim::SimTime time;
    std::uint64_t draw;
    friend auto operator<=>(const Pending&, const Pending&) = default;
  };

  [[nodiscard]] Pending next() const {
    return departures_.empty() ? arrival_
                               : std::min(arrival_, departures_.front());
  }

  [[nodiscard]] double gap() {
    return rng_.uniform(0.0, 2.0 * params_.mean_interarrival_s);
  }

  void arrive(sim::SimTime now) {
    const double lifetime = sample_lifetime();
    if (lifetime <= 0.0) return;  // degenerate branch: exits immediately
    ++alive_;
    departures_.push_back({now + lifetime, draws_++});
    std::push_heap(departures_.begin(), departures_.end(), std::greater<>{});
  }

  [[nodiscard]] double sample_lifetime() {
    if (!rng_.bernoulli(params_.long_prob)) return 0.0;
    return rng_.exponential_mean(params_.mean_lifetime_s / params_.long_prob);
  }

  [[nodiscard]] LoadState state() const { return {alive_, true}; }

  HyperExpParams params_;
  sim::Rng rng_;
  Pending arrival_{sim::kTimeInfinity, 0};
  std::vector<Pending> departures_;  ///< min-heap
  std::uint64_t draws_ = 0;
  int alive_ = 0;
};

}  // namespace

HyperExpModel::HyperExpModel(const HyperExpParams& params) : params_(params) {
  if (params.mean_lifetime_s <= 0.0)
    throw std::invalid_argument("HyperExpModel: mean lifetime must be positive");
  if (params.long_prob <= 0.0 || params.long_prob > 1.0)
    throw std::invalid_argument("HyperExpModel: long_prob must lie in (0, 1]");
  if (params.mean_interarrival_s <= 0.0)
    throw std::invalid_argument(
        "HyperExpModel: mean interarrival must be positive");
}

std::unique_ptr<LoadSource> HyperExpModel::make_source(sim::Rng rng) const {
  return std::make_unique<HyperExpSource>(params_, rng);
}

std::string HyperExpModel::describe() const {
  return "hyperexp;mean_lifetime_s=" +
         describe_number(params_.mean_lifetime_s) +
         ";long_prob=" + describe_number(params_.long_prob) +
         ";mean_interarrival_s=" +
         describe_number(params_.mean_interarrival_s);
}

}  // namespace simsweep::load
