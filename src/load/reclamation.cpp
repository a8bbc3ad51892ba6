#include "load/reclamation.hpp"

#include <cstdint>
#include <stdexcept>

namespace simsweep::load {

namespace {

class ReclamationSource final : public LoadSource {
 public:
  ReclamationSource(std::unique_ptr<LoadSource> base,
                    const ReclamationParams& params, sim::Rng rng)
      : base_(std::move(base)), params_(params), rng_(rng) {}

  LoadState begin(sim::SimTime now) override {
    if (base_) {
      take_base(base_->begin(now));
      base_draw_ = draws_++;
    }
    // The owner's initial presence is a change due at once, taken after
    // the base has set its own initial state.
    available_ = !params_.start_available;
    toggle_ = now;
    toggle_draw_ = draws_++;
    return state_;
  }

  [[nodiscard]] sim::SimTime next_change() const override {
    return base_due() ? base_->next_change() : toggle_;
  }

  LoadState advance() override {
    if (base_due()) {
      take_base(base_->advance());
      base_draw_ = draws_++;
    } else {
      available_ = !available_;
      state_.online = available_;
      draw_toggle(toggle_);
    }
    return state_;
  }

 private:
  /// True when the base's next change comes before the owner's next toggle;
  /// equal times go to whichever was drawn first.
  [[nodiscard]] bool base_due() const {
    if (!base_) return false;
    const sim::SimTime base_next = base_->next_change();
    return base_next < toggle_ ||
           (base_next == toggle_ && base_draw_ < toggle_draw_);
  }

  /// The base drives the competitor count.  The online flag has one writer
  /// at a time: a base that toggles it too (a nested reclamation) takes it
  /// over whenever its own flag flips, exactly as a second owner would.
  void take_base(LoadState base) {
    state_.competitors = base.competitors;
    if (base.online != base_online_) {
      base_online_ = base.online;
      state_.online = base.online;
    }
  }

  void draw_toggle(sim::SimTime now) {
    const double mean =
        available_ ? params_.mean_available_s : params_.mean_reclaimed_s;
    toggle_ = now + rng_.exponential_mean(mean);
    toggle_draw_ = draws_++;
  }

  std::unique_ptr<LoadSource> base_;
  ReclamationParams params_;
  sim::Rng rng_;
  LoadState state_;
  bool available_ = true;
  bool base_online_ = true;
  sim::SimTime toggle_ = sim::kTimeInfinity;
  std::uint64_t toggle_draw_ = 0;
  std::uint64_t base_draw_ = 0;
  std::uint64_t draws_ = 0;
};

}  // namespace

ReclamationModel::ReclamationModel(std::shared_ptr<const LoadModel> base,
                                   ReclamationParams params)
    : base_(std::move(base)), params_(params) {
  if (params.mean_available_s <= 0.0 || params.mean_reclaimed_s <= 0.0)
    throw std::invalid_argument(
        "ReclamationModel: phase durations must be positive");
}

std::unique_ptr<LoadSource> ReclamationModel::make_source(sim::Rng rng) const {
  auto base_source = base_ ? base_->make_source(rng.split(1)) : nullptr;
  return std::make_unique<ReclamationSource>(std::move(base_source), params_,
                                             rng.split(2));
}

std::string ReclamationModel::describe() const {
  return "reclaim;mean_available_s=" +
         describe_number(params_.mean_available_s) + ";mean_reclaimed_s=" +
         describe_number(params_.mean_reclaimed_s) + ";start_available=" +
         (params_.start_available ? "1" : "0") + ";base=[" +
         (base_ ? base_->describe() : "none") + "]";
}

}  // namespace simsweep::load
