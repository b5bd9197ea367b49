#include "timed_platform.h"

#include <utility>

#include "spans.h"

namespace perfbench {

namespace {

class TimedModel final : public mlaas::TrainedModel {
 public:
  TimedModel(mlaas::TrainedModelPtr inner, std::string tag, std::string key)
      : inner_(std::move(inner)), tag_(std::move(tag)), key_(std::move(key)) {}

  std::vector<int> predict(const mlaas::Matrix& x) const override {
    ScopedSpan span("predict", /*thread_cpu=*/true);
    label(span, x.rows());
    return inner_->predict(x);
  }
  bool exposes_scores() const override { return inner_->exposes_scores(); }
  std::vector<double> predict_score(const mlaas::Matrix& x) const override {
    ScopedSpan span("predict", /*thread_cpu=*/true);
    label(span, x.rows());
    return inner_->predict_score(x);
  }

 private:
  void label(ScopedSpan& span, std::size_t rows) const {
    if (!span.active()) return;
    span.set_tag(tag_);
    span.set_key(key_);
    span.set_rows(rows);
  }

  mlaas::TrainedModelPtr inner_;
  std::string tag_;
  std::string key_;
};

}  // namespace

std::string pair_tag(const std::string& platform, const std::string& classifier) {
  return platform + "." + (classifier.empty() ? "auto" : classifier);
}

TimedPlatform::TimedPlatform(mlaas::PlatformPtr inner)
    : inner_(std::move(inner)), name_(inner_->name()) {}

mlaas::TrainedModelPtr TimedPlatform::train(const mlaas::Dataset& train,
                                            const mlaas::PipelineConfig& config,
                                            std::uint64_t seed) const {
  std::string tag = pair_tag(name_, config.classifier);
  std::string key = train.meta().id + "|" + config.key();
  mlaas::TrainedModelPtr model;
  {
    ScopedSpan span("fit", /*thread_cpu=*/true);
    span.set_tag(tag);
    span.set_key(key);
    model = inner_->train(train, config, seed);
  }
  return std::make_unique<TimedModel>(std::move(model), std::move(tag), std::move(key));
}

std::vector<mlaas::PlatformPtr> timed_roster(std::vector<mlaas::PlatformPtr> roster) {
  std::vector<mlaas::PlatformPtr> out;
  out.reserve(roster.size());
  for (auto& p : roster) out.push_back(std::make_unique<TimedPlatform>(std::move(p)));
  return out;
}

}  // namespace perfbench
