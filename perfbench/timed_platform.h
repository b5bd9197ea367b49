// Timing decorator around a Platform, used as the roster of traced runs.
//
// TimedPlatform forwards name(), complexity_rank(), controls() and
// baseline_config() to the wrapped platform, records a "fit" span (wall and
// thread CPU) around train(), and wraps the returned model in a TimedModel
// whose predict()/predict_score() record "predict" spans.  It changes no
// result: the traced run checks that its output digests equal the untraced
// run's.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "platform/platform.h"

namespace perfbench {

class TimedPlatform final : public mlaas::Platform {
 public:
  explicit TimedPlatform(mlaas::PlatformPtr inner);

  std::string name() const override { return name_; }
  int complexity_rank() const override { return inner_->complexity_rank(); }
  mlaas::ControlSurface controls() const override { return inner_->controls(); }
  mlaas::PipelineConfig baseline_config() const override { return inner_->baseline_config(); }
  mlaas::TrainedModelPtr train(const mlaas::Dataset& train,
                               const mlaas::PipelineConfig& config,
                               std::uint64_t seed) const override;

 private:
  mlaas::PlatformPtr inner_;
  std::string name_;
};

/// Wrap every platform of `roster` in a TimedPlatform.
std::vector<mlaas::PlatformPtr> timed_roster(std::vector<mlaas::PlatformPtr> roster);

/// "<platform>.<classifier>" with "auto" for the platform default, the tag of
/// fit/predict spans and of the per-pair ledger metrics.
std::string pair_tag(const std::string& platform, const std::string& classifier);

}  // namespace perfbench
