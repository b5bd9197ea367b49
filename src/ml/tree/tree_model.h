// Shared CART tree core.
//
// One builder backs every tree-based classifier in the library:
//   - DecisionTree / RandomForest / Bagging use Gini or entropy impurity on
//     binary labels (leaf value = positive fraction);
//   - BoostedDecisionTree fits MSE trees to gradients with optional Newton
//     leaf values (sum grad / (sum hess + lambda));
//   - DecisionJungle uses the level-width budget (max_width) to approximate
//     width-limited decision DAGs.
//
// Trees are built breadth-first so node budgets (max_nodes, BigML's
// "node threshold") and level-width budgets are enforced fairly.  The
// training kernel lives in ml/tree/trainer.{h,cpp}: fit() runs the presort
// workspace builder, the only builder in the library.  The per-node
// re-sorting builder it replaced is a test-only oracle
// (tests/oracle/tree_fit.h) that the equivalence suites compare against.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace mlaas {

enum class SplitCriterion { kGini, kEntropy, kMse };

struct TreeOptions {
  SplitCriterion criterion = SplitCriterion::kGini;
  std::size_t max_depth = 0;        // 0 = unlimited (hard cap 64)
  std::size_t min_samples_leaf = 1;
  std::size_t min_samples_split = 2;
  std::size_t max_features = 0;     // per-split feature sample; 0 = all
  std::size_t max_nodes = 0;        // total node budget; 0 = unlimited
  std::size_t max_width = 0;        // per-level split budget (jungle); 0 = off
  int random_splits = 0;            // >0: evaluate this many random thresholds
                                    // per feature instead of the full scan
  std::uint64_t seed = 0;
};

struct TreeNode {
  int feature = -1;                 // -1 = leaf
  double threshold = 0.0;
  int left = -1;
  int right = -1;
  double value = 0.0;               // leaf prediction
  std::uint32_t n_samples = 0;
};

class TreeModel {
 public:
  /// Fit a regression/classification tree on targets (binary labels as
  /// 0/1 doubles for classification).  `hessians`, when non-empty, switches
  /// leaves to Newton values sum(target)/(sum(hessian)+1e-6) — used by
  /// gradient boosting (targets are then gradients).
  void fit(const Matrix& x, std::span<const double> targets,
           std::span<const double> hessians, const TreeOptions& options);

  double predict_one(std::span<const double> row) const;
  std::vector<double> predict(const Matrix& x) const;

  /// out[r] += scale * prediction(row r), traversed in row blocks with no
  /// per-tree temporary vector.  Boosting's fit updates its raw scores with
  /// it; fitted ensembles score through FlatForest, which is bit-identical.
  void predict_accumulate(const Matrix& x, double scale, std::span<double> out) const;

  /// Serialize/restore the node array (see ml/serialize.h framing).
  void save(std::ostream& out) const;
  void load(std::istream& in);

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t leaf_count() const;
  std::size_t depth() const;
  bool empty() const { return nodes_.empty(); }
  const std::vector<TreeNode>& nodes() const { return nodes_; }

  /// Install a trained node array; called by the training kernels in
  /// ml/tree/trainer.cpp.
  void set_nodes(std::vector<TreeNode> nodes) { nodes_ = std::move(nodes); }

 private:
  std::vector<TreeNode> nodes_;
};

/// The tree ensembles' tree-list codec: a count, then each tree's save().
/// load_trees() names the count `what` in its errors.
void save_trees(std::ostream& out, std::span<const TreeModel> trees);
std::vector<TreeModel> load_trees(std::istream& in, const char* what);

}  // namespace mlaas
