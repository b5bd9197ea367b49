// Test-only reference oracle for the CART tree family's training kernel:
// the per-node re-sorting builder that the presort workspace replaced, and
// the five tree classifiers' fit loops on top of it.  The builder keeps its
// own copies of the node statistics, impurity, gain evaluation and the
// breadth-first build loop, so a bug in the library's copies shows up as a
// mismatch instead of cancelling out.  See tests/oracle/mlp_fit.h for what
// the oracles are for.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "ml/params.h"
#include "ml/tree/tree_model.h"

namespace mlaas::oracle {

/// The original builder: at every node, each sampled feature's (value, row)
/// pairs are gathered and sorted afresh, then scanned.  Fits `tree` on all
/// of `x`; what TreeModel::fit computes.
void reference_fit_tree(TreeModel& tree, const Matrix& x, std::span<const double> targets,
                        std::span<const double> hessians, const TreeOptions& options);

/// train_tree's view by materialisation: x.select_rows(rows), then
/// select_cols(features), then reference_fit_tree on the copy (on x itself
/// when both are empty).  Targets and hessians are indexed by view row.
void reference_train_tree(TreeModel& tree, const Matrix& x,
                          std::span<const double> targets,
                          std::span<const double> hessians, const TreeOptions& options,
                          std::span<const std::size_t> rows = {},
                          std::span<const std::size_t> features = {});

/// A tree-family classifier's fitted state.
struct ReferenceTreeFit {
  std::string name;  // registry name
  bool single_class = false;
  int single_class_label = 0;
  std::vector<TreeModel> trees;  // in the order save() writes them
  std::vector<std::vector<std::size_t>> features;  // bagging: each member's column subset
  double learning_rate = 0.2;    // boosted_trees
  double base_score = 0.0;       // boosted_trees: the log-odds prior
};

/// Fits registry classifier `name` (decision_tree, random_forest, bagging,
/// boosted_trees or decision_jungle) with its fit() loop, calling
/// reference_train_tree where the classifier calls train_tree.
ReferenceTreeFit reference_tree_classifier_fit(const std::string& name,
                                               const ParamMap& params, std::uint64_t seed,
                                               const Matrix& x, const std::vector<int>& y);

/// The bytes the classifier's save() writes for `fit`.
std::string saved_bytes(const ReferenceTreeFit& fit);

}  // namespace mlaas::oracle
