#include "load/onoff.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace simsweep::load {

double sample_geometric_sojourn(sim::Rng& rng, double exit_p, double step_s) {
  if (exit_p <= 0.0) return sim::kTimeInfinity;
  if (exit_p >= 1.0) return step_s;
  // Geometric (number of trials until first success, support {1, 2, ...})
  // via inversion: k = ceil(ln(U) / ln(1 - p)).
  const double u = rng.uniform01();
  const double k =
      std::ceil(std::log(1.0 - u) / std::log(1.0 - exit_p));
  return std::max(1.0, k) * step_s;
}

GeometricSojourn::GeometricSojourn(double exit_p, double step_s)
    : exit_p_(exit_p), step_s_(step_s), log_stay_(std::log(1.0 - exit_p)) {}

double GeometricSojourn::sample(sim::Rng& rng) const {
  if (exit_p_ <= 0.0) return sim::kTimeInfinity;
  if (exit_p_ >= 1.0) return step_s_;
  const double u = rng.uniform01();
  const double k = std::ceil(std::log(1.0 - u) / log_stay_);
  return std::max(1.0, k) * step_s_;
}

namespace {

class OnOffSource final : public LoadSource {
 public:
  OnOffSource(const OnOffParams& params, sim::Rng rng)
      : params_(params),
        rng_(rng),
        leave_off_(params.p, params.step_s),
        leave_on_(params.q, params.step_s) {}

  LoadState begin(sim::SimTime now) override {
    const double pi =
        params_.p + params_.q > 0.0 ? params_.p / (params_.p + params_.q) : 0.0;
    on_ = params_.stationary_start && rng_.bernoulli(pi);
    next_ = now + sojourn();
    return state();
  }

  [[nodiscard]] sim::SimTime next_change() const override { return next_; }

  LoadState advance() override {
    on_ = !on_;
    next_ += sojourn();  // +infinity once absorbed in this state
    return state();
  }

 private:
  [[nodiscard]] double sojourn() {
    return (on_ ? leave_on_ : leave_off_).sample(rng_);
  }
  [[nodiscard]] LoadState state() const { return {on_ ? 1 : 0, true}; }

  OnOffParams params_;
  sim::Rng rng_;
  GeometricSojourn leave_off_;  ///< exit probability p
  GeometricSojourn leave_on_;   ///< exit probability q
  bool on_ = false;
  sim::SimTime next_ = sim::kTimeInfinity;
};

}  // namespace

OnOffModel::OnOffModel(const OnOffParams& params) : params_(params) {
  if (params.p < 0.0 || params.p > 1.0 || params.q < 0.0 || params.q > 1.0)
    throw std::invalid_argument("OnOffModel: p and q must lie in [0, 1]");
  if (params.step_s <= 0.0)
    throw std::invalid_argument("OnOffModel: step must be positive");
}

std::unique_ptr<LoadSource> OnOffModel::make_source(sim::Rng rng) const {
  return std::make_unique<OnOffSource>(params_, rng);
}

std::string OnOffModel::describe() const {
  return "onoff;p=" + describe_number(params_.p) +
         ";q=" + describe_number(params_.q) +
         ";step_s=" + describe_number(params_.step_s) + ";stationary_start=" +
         (params_.stationary_start ? "1" : "0");
}

double OnOffModel::stationary_on_fraction() const noexcept {
  const double total = params_.p + params_.q;
  return total > 0.0 ? params_.p / total : 0.0;
}

}  // namespace simsweep::load
