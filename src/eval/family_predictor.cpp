#include "eval/family_predictor.h"

#include <algorithm>
#include <set>

#include "data/dataset.h"
#include "data/split.h"
#include "ml/metrics.h"
#include "ml/model_selection/cross_validation.h"
#include "ml/registry.h"
#include "util/rng.h"

namespace mlaas {

std::vector<double> family_features(const Measurement& m) {
  std::vector<double> features{m.test.f_score, m.test.accuracy, m.test.precision,
                               m.test.recall};
  // Predicted-label signature bits, zero-padded to a fixed width so every
  // row of a meta-dataset has the same dimensionality.
  features.reserve(4 + kLabelSignatureSize);
  for (std::size_t i = 0; i < kLabelSignatureSize; ++i) {
    features.push_back(i < m.label_signature.size() && m.label_signature[i] == '1' ? 1.0
                                                                                   : 0.0);
  }
  return features;
}

namespace {

const std::set<std::string> kGroundTruthPlatforms = {"BigML", "PredictionIO", "Microsoft",
                                                     "Local"};

constexpr double kSelectThreshold = 0.95;  // validation F-score to select (§6.2)

/// Experiments with known classifier choice on one dataset, as a meta
/// dataset: features = observable metrics, label = 1 for non-linear.
Dataset build_meta_dataset(const MeasurementTable& table, const std::string& dataset_id) {
  std::vector<std::vector<double>> feats;
  std::vector<int> labels;
  for (const auto& m : table.rows()) {
    if (m.dataset_id != dataset_id) continue;
    if (m.classifier == "auto" || kGroundTruthPlatforms.count(m.platform) == 0) continue;
    feats.push_back(family_features(m));
    labels.push_back(classifier_is_linear(m.classifier) ? 0 : 1);
  }
  const std::size_t width = feats.empty() ? 0 : feats.front().size();
  Matrix x(feats.size(), width);
  for (std::size_t r = 0; r < feats.size(); ++r) {
    for (std::size_t c = 0; c < width; ++c) x(r, c) = feats[r][c];
  }
  Dataset meta(std::move(x), std::move(labels));
  meta.meta().id = "meta-" + dataset_id;
  return meta;
}

ParamMap meta_rf_params() {
  // Random Forests, the paper's choice of meta-classifier (§6.2).
  return ParamMap{{"n_estimators", 60LL}, {"max_depth", 14LL}};
}

}  // namespace

FamilyPredictorReport train_family_predictors(const MeasurementTable& table,
                                              std::uint64_t seed) {
  FamilyPredictorReport report;
  for (const auto& dataset_id : table.dataset_ids()) {
    DatasetFamilyPredictor predictor;
    predictor.dataset_id = dataset_id;

    const Dataset meta = build_meta_dataset(table, dataset_id);
    const std::size_t pos = count_positive(meta.y());
    // Need both families represented with enough samples to split 70/30 and
    // run 5-fold CV.
    if (meta.n_samples() < 20 || pos < 5 || meta.n_samples() - pos < 5) {
      report.predictors.push_back(std::move(predictor));
      continue;
    }
    predictor.trainable = true;

    const auto split = train_test_split(meta, 0.3, derive_seed(seed, "meta-" + dataset_id),
                                        /*stratified=*/true);
    // 5-fold CV on the 70% split estimates validation performance (Fig 12).
    const CvResult cv = cross_validate("random_forest", meta_rf_params(), split.train, 5,
                                       derive_seed(seed, "meta-cv-" + dataset_id));
    predictor.validation_f = cv.mean.f_score;

    auto model = make_classifier("random_forest", meta_rf_params(),
                                 derive_seed(seed, "meta-fit-" + dataset_id));
    model->fit(split.train.x(), split.train.y());
    predictor.test_f = f1_score(split.test.y(), model->predict(split.test.x()));
    predictor.model = std::shared_ptr<Classifier>(std::move(model));

    if (predictor.validation_f > kSelectThreshold) report.selected.push_back(dataset_id);
    report.predictors.push_back(std::move(predictor));
  }
  return report;
}

std::vector<BlackBoxChoice> predict_blackbox_choices(const FamilyPredictorReport& report,
                                                     const MeasurementTable& table,
                                                     const std::string& platform) {
  std::vector<BlackBoxChoice> out;
  const std::set<std::string> selected(report.selected.begin(), report.selected.end());
  for (const auto& predictor : report.predictors) {
    if (!predictor.model || selected.count(predictor.dataset_id) == 0) continue;
    const MeasurementTable rows =
        table.for_platform(platform).for_dataset(predictor.dataset_id);
    if (rows.empty()) continue;

    const std::size_t width = family_features(rows.rows()[0]).size();
    Matrix x(rows.size(), width);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const auto f = family_features(rows.rows()[r]);
      for (std::size_t c = 0; c < width; ++c) x(r, c) = f[c];
    }
    const auto labels = predictor.model->predict(x);
    std::size_t nonlinear = 0;
    for (int v : labels) nonlinear += v == 1 ? 1 : 0;

    BlackBoxChoice choice;
    choice.dataset_id = predictor.dataset_id;
    choice.n_rows = rows.size();
    choice.nonlinear_fraction =
        static_cast<double>(nonlinear) / static_cast<double>(rows.size());
    choice.family = choice.nonlinear_fraction > 0.5 ? ClassifierFamily::kNonLinear
                                                    : ClassifierFamily::kLinear;
    out.push_back(std::move(choice));
  }
  return out;
}

}  // namespace mlaas
