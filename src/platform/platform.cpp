#include "platform/platform.h"

#include <algorithm>
#include <stdexcept>

#include "ml/tree/trainer.h"
#include "util/rng.h"

namespace mlaas {

std::string PipelineConfig::key() const {
  const std::string feat = feature_step.empty() ? "none" : feature_step;
  const std::string clf = classifier.empty() ? "auto" : classifier;
  return feat + "|" + clf + "|" + params.to_string();
}

const ClassifierGridSpec* ControlSurface::find(const std::string& classifier) const {
  for (const auto& spec : classifiers) {
    if (spec.classifier == classifier) return &spec;
  }
  return nullptr;
}

std::vector<double> TrainedModel::predict_score(const Matrix&) const {
  throw std::logic_error("TrainedModel: this platform does not expose prediction scores");
}

PipelineConfig Platform::baseline_config() const {
  PipelineConfig config;
  const ControlSurface surface = controls();
  if (!surface.classifier_choice) return config;  // fully automated platform
  const ClassifierGridSpec* lr = surface.find("logistic_regression");
  if (lr == nullptr) lr = &surface.classifiers.front();
  config.classifier = lr->classifier;
  config.params = lr->default_config();
  return config;
}

PipelineModel::PipelineModel(std::string feature_step, ClassifierPtr classifier,
                             bool expose_scores)
    : feature_step_name_(std::move(feature_step)),
      classifier_(std::move(classifier)),
      expose_scores_(expose_scores) {
  if (!classifier_) throw std::invalid_argument("PipelineModel: null classifier");
}

void PipelineModel::fit(const Dataset& train) {
  if (feature_step_name_.empty()) {
    classifier_->fit(train.x(), train.y());
    return;
  }
  TrainContext* context = active_train_context();
  const FittedFeatureStep fitted =
      context != nullptr ? context->feature_step(feature_step_name_, train.x(), train.y())
                         : fit_feature_step(feature_step_name_, train.x(), train.y());
  feature_step_ = fitted.step;
  classifier_->fit(*fitted.train_x, train.y());
}

const Matrix& PipelineModel::apply_feature_step(const Matrix& x) const {
  if (!feature_step_) return x;  // no copy on the no-FEAT fast path
  feat_scratch_ = feature_step_->transform(x);
  return feat_scratch_;
}

std::vector<int> PipelineModel::predict(const Matrix& x) const {
  std::vector<int> labels;
  classifier_->predict_into(apply_feature_step(x), score_scratch_, labels);
  return labels;
}

std::vector<double> PipelineModel::predict_score(const Matrix& x) const {
  if (!expose_scores_) return TrainedModel::predict_score(x);
  return classifier_->predict_score(apply_feature_step(x));
}

TrainedModelPtr train_pipeline(const ControlSurface& surface, const std::string& platform_name,
                               const Dataset& train, const PipelineConfig& config,
                               std::uint64_t seed, const std::string& default_classifier,
                               bool expose_scores) {
  // Validate FEAT.
  std::string feat;
  if (!config.feature_step.empty() && config.feature_step != "none") {
    if (!surface.feature_selection) {
      throw std::invalid_argument(platform_name + ": feature selection is not supported");
    }
    if (std::find(surface.feature_steps.begin(), surface.feature_steps.end(),
                  config.feature_step) == surface.feature_steps.end()) {
      throw std::invalid_argument(platform_name + ": unknown feature step " +
                                  config.feature_step);
    }
    feat = config.feature_step;
  }
  // Validate CLF.
  std::string clf_name = config.classifier.empty() ? default_classifier : config.classifier;
  if (!config.classifier.empty() && !surface.classifier_choice &&
      config.classifier != default_classifier) {
    throw std::invalid_argument(platform_name + ": classifier choice is not supported");
  }
  const ClassifierGridSpec* spec = surface.find(clf_name);
  if (spec == nullptr) {
    throw std::invalid_argument(platform_name + ": unknown classifier " + clf_name);
  }
  // Validate PARA: fill platform defaults, overlay user values.
  if (!config.params.empty() && !surface.parameter_tuning) {
    throw std::invalid_argument(platform_name + ": parameter tuning is not supported");
  }
  ParamMap params = spec->default_config();
  for (const auto& [k, v] : config.params) params.set(k, v);

  auto model = std::make_unique<PipelineModel>(
      std::move(feat),
      make_classifier(clf_name, params, derive_seed(seed, platform_name + clf_name)),
      expose_scores);
  model->fit(train);
  return model;
}

}  // namespace mlaas
