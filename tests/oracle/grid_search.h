// Test-only reference oracle for grid_search: the search as it ran before
// every configuration shared one fold plan and one TrainContext.  Each
// configuration re-partitions the folds, re-copies the subsets and fits
// with no context installed, one after the other.  See
// tests/oracle/mlp_fit.h for what the oracles are for.
#pragma once

#include <cstdint>

#include "data/dataset.h"
#include "ml/model_selection/grid_search.h"

namespace mlaas::oracle {

/// grid_search(spec, train, {cv_folds, threads}, seed) for any thread
/// count: for each config of expand_grid(spec, 0, seed), in grid order, a
/// fresh FoldPlan::compute(train, cv_folds, seed) and
/// cross_validate(name, params, plan, derive_seed(seed, params.to_string()))
/// with any outer TrainContext masked.  A NaN mean F-score counts as 0, and
/// ties break toward the smaller canonical parameter string.
GridSearchResult reference_grid_search(const ClassifierGridSpec& spec, const Dataset& train,
                                       int cv_folds, std::uint64_t seed);

}  // namespace mlaas::oracle
