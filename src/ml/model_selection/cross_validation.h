// Stratified k-fold cross-validation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "data/dataset.h"
#include "ml/classifier.h"
#include "ml/metrics.h"
#include "ml/model_selection/fold_plan.h"

namespace mlaas {

/// Build-a-fresh-classifier callback (one per fold).
using ClassifierFactory = std::function<ClassifierPtr()>;

struct CvResult {
  Metrics mean;        // metric means across evaluated folds
  double f_score_std = 0.0;
  int folds = 0;            // effective k after the minority-class clamp
  int evaluated_folds = 0;  // folds actually scored (both sides non-empty)
};

/// k-fold CV of a classifier over a pre-materialized FoldPlan; returns
/// averaged test-fold metrics.  No re-partitioning or subset copies.
CvResult cross_validate(const ClassifierFactory& factory, const FoldPlan& plan);

/// CV by registry name + params over a FoldPlan.  `seed` is the
/// per-configuration seed; the classifier is built with
/// derive_seed(seed, "cv-clf").
CvResult cross_validate(const std::string& classifier, const ParamMap& params,
                        const FoldPlan& plan, std::uint64_t seed);

/// CV by registry name + params on a dataset: the overload above over
/// FoldPlan::compute(dataset, k, seed).  Folds are stratified; k is reduced
/// when the minority class is too small.
CvResult cross_validate(const std::string& classifier, const ParamMap& params,
                        const Dataset& dataset, int k, std::uint64_t seed);

}  // namespace mlaas
