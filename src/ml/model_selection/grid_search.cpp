#include "ml/model_selection/grid_search.h"

#include <cmath>
#include <string>
#include <vector>

#include "ml/tree/trainer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mlaas {

namespace {

/// Score one config against the plan.  Depends only on (plan, spec, params,
/// seed) — never on evaluation order or sibling configs — which is what
/// makes parallel evaluation trivially bit-identical.
double score_config(const ClassifierGridSpec& spec, const ParamMap& params,
                    const FoldPlan& plan, std::uint64_t seed) {
  const CvResult cv =
      cross_validate(spec.classifier, params, plan, derive_seed(seed, params.to_string()));
  // A degenerate fold (e.g. one class absent -> undefined F) yields NaN;
  // NaN compares false against everything, which would let it neither win
  // nor lose and make the result depend on enumeration order.  Score it 0.
  const double score = cv.mean.f_score;
  return std::isnan(score) ? 0.0 : score;
}

}  // namespace

GridSearchResult grid_search(const ClassifierGridSpec& spec, const Dataset& train,
                             const GridSearchOptions& options, std::uint64_t seed) {
  const auto grid = expand_grid(spec, options.max_configs, seed);
  GridSearchResult result;
  result.n_configs = grid.size();
  result.best_params = spec.default_config();
  if (grid.empty()) return result;

  // One fold plan for the whole search; with reuse off an identical plan is
  // recomputed per config (the pre-engine cost model, kept measurable).
  FoldPlanPtr shared_plan;
  if (options.reuse) shared_plan = FoldPlan::compute(train, options.cv_folds, seed);

  // Shared cross-config training-state cache (tree presorts, kNN norms).
  // The shared plan keeps every fold's train matrix alive and at a stable
  // address for the whole search, so configs on the same fold hit.
  TrainContext context;

  std::vector<double> scores(grid.size());
  const auto eval_one = [&](std::size_t i) {
    ScopedTrainContext scope(options.reuse ? &context : nullptr);
    const FoldPlanPtr plan = options.reuse
                                 ? shared_plan
                                 : FoldPlan::compute(train, options.cv_folds, seed);
    scores[i] = score_config(spec, grid[i], *plan, seed);
  };

  if (options.threads == 1) {
    for (std::size_t i = 0; i < grid.size(); ++i) eval_one(i);
  } else {
    ThreadPool pool(options.threads);
    pool.parallel_for_dynamic(grid.size(), eval_one);
  }

  // Reduce in canonical grid order: workers fill independent slots, so the
  // winner (and its tie-break) is identical for every thread count.
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

}  // namespace mlaas
