// MLaaS platform abstraction (§2, Figure 1).
//
// A Platform is an opaque train/predict service: the evaluation harness may
// only (a) inspect the advertised control surface, (b) upload a training
// set with a pipeline configuration drawn from that surface, and (c) query
// the trained model for predictions.  Black-box platforms (ABM, Google)
// advertise no controls; their internal classifier choice is invisible,
// exactly as in the paper.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "ml/feature/filters.h"
#include "ml/model_selection/param_grid.h"
#include "ml/registry.h"

namespace mlaas {

/// One point in the user-visible configuration space: a FEAT step, a CLF
/// choice and its PARA values (§3.2's three control dimensions).
struct PipelineConfig {
  std::string feature_step;  // "" / "none" = no feature selection
  std::string classifier;    // "" = platform default (or automated choice)
  ParamMap params;

  /// Stable identity string "feat|clf|params".
  std::string key() const;
};

/// The knobs a platform exposes (Figure 1's per-platform checkmarks).
struct ControlSurface {
  bool feature_selection = false;
  bool classifier_choice = false;
  bool parameter_tuning = false;
  std::vector<std::string> feature_steps;         // FEAT options
  std::vector<ClassifierGridSpec> classifiers;    // CLF rows with PARA grids

  const ClassifierGridSpec* find(const std::string& classifier) const;
};

/// A model trained by a platform.  Some platforms do not expose prediction
/// scores (§3.2: PredictionIO and several BigML classifiers return labels
/// only), hence the separate capability flag.
class TrainedModel {
 public:
  virtual ~TrainedModel() = default;
  virtual std::vector<int> predict(const Matrix& x) const = 0;
  virtual bool exposes_scores() const { return false; }
  /// Only valid when exposes_scores(); default throws.
  virtual std::vector<double> predict_score(const Matrix& x) const;
};

using TrainedModelPtr = std::unique_ptr<TrainedModel>;

class Platform {
 public:
  virtual ~Platform() = default;

  virtual std::string name() const = 0;
  /// Position on the complexity axis of Figures 2/4/6 (0 = least control).
  virtual int complexity_rank() const = 0;
  virtual ControlSurface controls() const = 0;

  /// Train on `train` with `config`; throws std::invalid_argument when the
  /// config uses controls the platform does not expose.
  virtual TrainedModelPtr train(const Dataset& train, const PipelineConfig& config,
                                std::uint64_t seed) const = 0;

  /// The zero-control configuration used for the paper's `baseline`
  /// reference point (§3.2: Logistic Regression with platform defaults, no
  /// feature selection; black-box platforms return an empty config).
  virtual PipelineConfig baseline_config() const;
};

using PlatformPtr = std::unique_ptr<Platform>;

/// Standard FEAT->CLF pipeline model shared by all white-box platform
/// implementations.
class PipelineModel final : public TrainedModel {
 public:
  /// `feature_step` is a make_feature_step name, or "" for none.
  PipelineModel(std::string feature_step, ClassifierPtr classifier, bool expose_scores);

  /// Fit both stages.  Under an active TrainContext the fitted feature step
  /// and its transform of the training matrix come from the context
  /// (TrainContext::feature_step), so consecutive pipelines with one step on
  /// one training set fit it once.
  void fit(const Dataset& train);

  std::vector<int> predict(const Matrix& x) const override;
  bool exposes_scores() const override { return expose_scores_; }
  std::vector<double> predict_score(const Matrix& x) const override;

  const Classifier& classifier() const { return *classifier_; }

 private:
  /// Returns x itself when there is no feature step (no copy), otherwise the
  /// transform result cached in feat_scratch_.
  const Matrix& apply_feature_step(const Matrix& x) const;

  std::string feature_step_name_;
  std::shared_ptr<const Transformer> feature_step_;  // null without a step
  ClassifierPtr classifier_;
  bool expose_scores_;
  // Predict-path scratch, reused across calls.  A model serves queries from
  // one thread at a time (router worker / campaign session), so plain
  // mutable members suffice.
  mutable Matrix feat_scratch_;
  mutable std::vector<double> score_scratch_;
};

/// Helper used by white-box platforms: validate `config` against `surface`,
/// construct the pipeline, and fit it.
TrainedModelPtr train_pipeline(const ControlSurface& surface, const std::string& platform_name,
                               const Dataset& train, const PipelineConfig& config,
                               std::uint64_t seed, const std::string& default_classifier,
                               bool expose_scores);

}  // namespace mlaas
