// Grid search over a ClassifierGridSpec using cross-validation.
//
// The measurement harness enumerates configurations itself (the paper
// evaluates every configuration on the held-out test set); GridSearch is the
// library-user-facing tuner used by the examples.
//
// Every configuration is scored on ONE shared fold plan, seeded at the
// dataset level (FoldPlan::compute(train, cv_folds, seed)) — the same folds
// a direct cross_validate(..., train, cv_folds, seed) call would draw.
// Scoring every config on identical folds removes fold-assignment noise
// from the comparison (paired instead of independent CV estimates) and is
// what lets the fold materialization be computed once per search instead of
// once per config.  Per-config classifier seeds are unchanged:
// derive_seed(seed, params.to_string()).
#pragma once

#include "ml/model_selection/cross_validation.h"
#include "ml/model_selection/param_grid.h"

namespace mlaas {

struct GridSearchOptions {
  int cv_folds = 5;
  /// Grid subsample cap (0 = unlimited), as expand_grid.
  std::size_t max_configs = 0;
  /// Worker threads for config evaluation: 1 = serial in the calling
  /// thread, 0 = hardware concurrency.  Results are bit-identical for every
  /// thread count: per-config seeds are order-independent and scores are
  /// reduced in canonical grid order.
  std::size_t threads = 1;
  /// Share the fold plan and a TrainContext (tree presorts, kNN norms)
  /// across configs.  Off rebuilds identical state per config — results are
  /// bit-identical either way; the toggle exists for benchmarks and
  /// equivalence tests.
  bool reuse = true;
};

struct GridSearchResult {
  ParamMap best_params;
  double best_cv_f_score = 0.0;
  std::size_t n_configs = 0;
};

/// Cross-validated search over the spec's grid.  Selection rule: a NaN mean
/// F-score (degenerate CV fold) counts as 0, and exact ties break toward the
/// lexicographically smaller canonical parameter string — both so the winner
/// is a deterministic function of the grid's contents, never of its
/// enumeration order (or, now, of the evaluation thread count).
GridSearchResult grid_search(const ClassifierGridSpec& spec, const Dataset& train,
                             const GridSearchOptions& options, std::uint64_t seed);

}  // namespace mlaas
