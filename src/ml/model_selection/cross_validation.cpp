#include "ml/model_selection/cross_validation.h"

#include <algorithm>
#include <cmath>

#include "ml/registry.h"
#include "util/rng.h"

namespace mlaas {

CvResult cross_validate(const ClassifierFactory& factory, const FoldPlan& plan) {
  CvResult result;
  result.folds = plan.k;
  std::vector<double> f_scores;
  for (const FoldPlan::Fold& fold : plan.folds) {
    if (fold.degenerate) continue;
    auto clf = factory();
    clf->fit(fold.train.x(), fold.train.y());
    const Metrics m = compute_metrics(fold.test.y(), clf->predict(fold.test.x()));
    result.mean.accuracy += m.accuracy;
    result.mean.precision += m.precision;
    result.mean.recall += m.recall;
    result.mean.f_score += m.f_score;
    f_scores.push_back(m.f_score);
  }
  result.evaluated_folds = static_cast<int>(f_scores.size());
  const double inv = 1.0 / static_cast<double>(std::max(1, result.evaluated_folds));
  result.mean.accuracy *= inv;
  result.mean.precision *= inv;
  result.mean.recall *= inv;
  result.mean.f_score *= inv;
  double var = 0.0;
  for (double f : f_scores) var += (f - result.mean.f_score) * (f - result.mean.f_score);
  result.f_score_std = f_scores.empty() ? 0.0 : std::sqrt(var * inv);
  return result;
}

CvResult cross_validate(const std::string& classifier, const ParamMap& params,
                        const FoldPlan& plan, std::uint64_t seed) {
  return cross_validate(
      [&] { return make_classifier(classifier, params, derive_seed(seed, "cv-clf")); },
      plan);
}

CvResult cross_validate(const std::string& classifier, const ParamMap& params,
                        const Dataset& dataset, int k, std::uint64_t seed) {
  return cross_validate(classifier, params, *FoldPlan::compute(dataset, k, seed), seed);
}

}  // namespace mlaas
