// Shared fold materialization: the data-only half of cross-validation.
//
// cross_validate() used to re-derive the stratified fold assignment and
// re-copy the k train/test Dataset subsets for every configuration a tuner
// evaluated, even though both depend only on (dataset, k, seed).  A FoldPlan
// computes them once; grid_search and auto_select share one plan across all
// their configurations via shared_ptr.
//
// Exact equivalence: compute() applies the same minority-class clamp and the
// same derive_seed(seed, "cv") fold assignment as the original
// cross_validate() body, and materializes each fold's train/test subsets in
// the same ascending-row order, so evaluating a classifier over a plan is
// bit-identical to the original per-config re-partitioning path.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataset.h"

namespace mlaas {

struct FoldPlan {
  struct Fold {
    Dataset train;
    Dataset test;
    /// One side empty (every sample fell in — or out of — this fold);
    /// evaluation skips it, exactly as the original per-fold loop did.
    bool degenerate = false;
  };

  int k = 0;                // effective k after the minority-class clamp
  std::vector<Fold> folds;  // size k, materialized train/test subsets

  /// Clamp k against the minority class, assign stratified folds with
  /// derive_seed(seed, "cv"), and materialize every fold's subsets.
  static std::shared_ptr<const FoldPlan> compute(const Dataset& dataset, int k,
                                                 std::uint64_t seed);

  /// Build from an explicit sample->fold assignment, no clamp or reseeding
  /// (tests construct degenerate folds on demand with this).
  static std::shared_ptr<const FoldPlan> from_assignment(const Dataset& dataset,
                                                         const std::vector<int>& assignment,
                                                         int k);
};

using FoldPlanPtr = std::shared_ptr<const FoldPlan>;

}  // namespace mlaas
