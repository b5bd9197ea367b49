#include "tests/oracle/grid_search.h"

#include <cmath>
#include <string>
#include <vector>

#include "ml/tree/trainer.h"
#include "util/rng.h"

namespace mlaas::oracle {

GridSearchResult reference_grid_search(const ClassifierGridSpec& spec, const Dataset& train,
                                       int cv_folds, std::uint64_t seed) {
  const auto grid = expand_grid(spec, 0, seed);
  GridSearchResult result;
  result.n_configs = grid.size();
  result.best_params = spec.default_config();
  if (grid.empty()) return result;

  std::vector<double> scores(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ScopedTrainContext scope(nullptr);
    const FoldPlanPtr plan = FoldPlan::compute(train, cv_folds, seed);
    const CvResult cv = cross_validate(spec.classifier, grid[i], *plan,
                                       derive_seed(seed, grid[i].to_string()));
    const double score = cv.mean.f_score;
    scores[i] = std::isnan(score) ? 0.0 : score;
  }

  double best = -1.0;
  std::string best_key;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const std::string key = grid[i].to_string();
    if (scores[i] > best || (scores[i] == best && key < best_key)) {
      best = scores[i];
      best_key = key;
      result.best_params = grid[i];
      result.best_cv_f_score = best;
    }
  }
  return result;
}

}  // namespace mlaas::oracle
