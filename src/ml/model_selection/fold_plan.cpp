#include "ml/model_selection/fold_plan.h"

#include <algorithm>

#include "data/split.h"
#include "ml/classifier.h"
#include "util/rng.h"

namespace mlaas {

namespace {

/// Materialize folds from a sample->fold assignment, ascending row order on
/// both sides — the same subset order the original cross_validate loop
/// produced.
void materialize(FoldPlan& plan, const Dataset& dataset, const std::vector<int>& assignment) {
  const std::size_t n = dataset.n_samples();
  plan.folds.resize(static_cast<std::size_t>(plan.k));
  std::vector<std::size_t> train_idx, test_idx;
  for (int fold = 0; fold < plan.k; ++fold) {
    train_idx.clear();
    test_idx.clear();
    for (std::size_t i = 0; i < n; ++i) {
      (assignment[i] == fold ? test_idx : train_idx).push_back(i);
    }
    FoldPlan::Fold& f = plan.folds[static_cast<std::size_t>(fold)];
    f.degenerate = train_idx.empty() || test_idx.empty();
    if (f.degenerate) continue;
    f.train = dataset.subset(train_idx);
    f.test = dataset.subset(test_idx);
  }
}

}  // namespace

std::shared_ptr<const FoldPlan> FoldPlan::compute(const Dataset& dataset, int k,
                                                  std::uint64_t seed) {
  auto plan = std::make_shared<FoldPlan>();
  const std::size_t n = dataset.n_samples();
  const std::size_t pos = count_positive(dataset.y());
  const std::size_t minority = std::min(pos, n - pos);
  plan->k =
      std::max(2, std::min<int>(k, static_cast<int>(std::max<std::size_t>(2, minority))));
  materialize(*plan, dataset, kfold_assignment(dataset.y(), plan->k, derive_seed(seed, "cv")));
  return plan;
}

std::shared_ptr<const FoldPlan> FoldPlan::from_assignment(const Dataset& dataset,
                                                          const std::vector<int>& assignment,
                                                          int k) {
  auto plan = std::make_shared<FoldPlan>();
  plan->k = k;
  materialize(*plan, dataset, assignment);
  return plan;
}

}  // namespace mlaas
