// Classifier-family inference for black-box platforms (§6.2, Figure 12).
//
// For each dataset, a meta-classifier (Random Forest, per the paper) is
// trained to predict whether an experiment used a linear or non-linear
// classifier, from nothing but the experiment's observable results: its
// test-set metrics and predicted labels (family_features).  Ground truth
// comes from the platforms that expose classifier choice (BigML,
// PredictionIO, Microsoft, Local).  Datasets whose validation F-score
// exceeds 0.95 are "selected" as having family-differentiating power; the
// selected predictors are then applied to Google / ABM / Amazon
// measurements to infer their hidden choices.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "eval/measurement.h"
#include "ml/classifier.h"
#include "platform/auto_select.h"

namespace mlaas {

/// Feature vector of one experiment row: [f, accuracy, precision, recall],
/// then kLabelSignatureSize (256) bits of the label signature, 1.0 where
/// the row predicted '1' on that test sample and 0.0 otherwise, zero-padded
/// past the test-set size.  Every row of a dataset pads past the same size,
/// so on a small test set most of a meta dataset's columns are constant.
std::vector<double> family_features(const Measurement& m);

struct DatasetFamilyPredictor {
  std::string dataset_id;
  double validation_f = 0.0;  // 5-fold CV F-score on the 70% split (Fig 12)
  double test_f = 0.0;        // held-out 30% F-score
  std::shared_ptr<Classifier> model;
  bool trainable = false;     // enough rows of both families existed
};

struct FamilyPredictorReport {
  std::vector<DatasetFamilyPredictor> predictors;
  std::vector<std::string> selected;  // validation_f > 0.95 (§6.2)
};

FamilyPredictorReport train_family_predictors(const MeasurementTable& table,
                                              std::uint64_t seed);

struct BlackBoxChoice {
  std::string dataset_id;
  ClassifierFamily family = ClassifierFamily::kLinear;
  double nonlinear_fraction = 0.0;  // share of the platform's configs
                                    // predicted non-linear (Amazon analysis)
  std::size_t n_rows = 0;
};

/// Apply the selected per-dataset predictors to one black-box platform's
/// measurement rows.  The majority family across the platform's
/// configurations is reported (black boxes have one config; Amazon has its
/// PARA grid).
std::vector<BlackBoxChoice> predict_blackbox_choices(const FamilyPredictorReport& report,
                                                     const MeasurementTable& table,
                                                     const std::string& platform);

}  // namespace mlaas
