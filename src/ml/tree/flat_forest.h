// Flattened struct-of-arrays inference layout for tree ensembles.
//
// TreeModel stores nodes as an array-of-structs (40 bytes per node, of
// which a traversal touches at most 20); every ensemble classifier walks
// its trees one after another over the full query matrix, so each tree's
// nodes are re-fetched cold for every predict call and each query row is
// re-streamed once per tree.  FlatForest flattens every fitted tree of an
// ensemble into four parallel arrays (feature / threshold / left / right,
// build order preserved, leaf prediction stored in the threshold slot) with
// absolute child indices, and traverses ROW BLOCKS against ALL trees: a
// 64-row block of the query matrix stays in cache while every tree scores
// it, and four rows walk each tree concurrently so the dependent node loads
// of one walk overlap the other three.  Leaves are self-loops (both
// children point at the leaf), which makes every traversal step the same
// branch-free compare-select whether a lane is still descending or already
// parked — tree walks are dominated by data-dependent branch mispredicts,
// and this removes all of them except the shared loop exit.
//
// Exact equivalence: node visits compare the same doubles in the same
// direction (value <= threshold) and out[r] accumulates scale * leaf in
// tree order per row, exactly like TreeModel::predict_accumulate — row
// interleaving and block order never reorder any per-element arithmetic,
// so scores are bit-identical to walking the trees one after another.
// Bagged column subsets are baked into the node feature indices at build
// time, so a member trained on a column subset scores the full matrix
// with no per-node feature-map indirection.  The per-tree walks this
// replaced, remapped one included, are test-only oracles
// (tests/oracle/predict.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "ml/tree/tree_model.h"

namespace mlaas {

class FlatForest {
 public:
  FlatForest() = default;
  /// Flatten `trees` in order, each reading every column.
  explicit FlatForest(std::span<const TreeModel> trees);

  void clear();
  bool empty() const { return roots_.empty(); }
  std::size_t tree_count() const { return roots_.size(); }
  std::size_t node_count() const { return feature_.size(); }

  /// Append one fitted tree.  When `feature_map` is non-empty, node feature
  /// f is rewritten to feature_map[f] (bagged members trained on a column
  /// subset score the full matrix directly).  An empty tree flattens to a
  /// single 0-valued leaf, preserving predict_accumulate's "+= scale * 0.0"
  /// arithmetic.
  void add_tree(const TreeModel& tree, std::span<const std::size_t> feature_map = {});

  /// out[r] += scale * tree_t(row r), summed over trees in insertion order —
  /// bit-identical to calling predict_accumulate(x, scale, out) on each
  /// TreeModel in the same order.
  void predict_accumulate(const Matrix& x, double scale, std::span<double> out) const;

  /// The ensemble mean every averaging forest scores with: `out` (resized
  /// to x.rows()) accumulates from 0.0 with scale 1, then is multiplied by
  /// 1 / max(1, tree_count()), so an empty forest scores +0.0.
  void predict_mean(const Matrix& x, std::vector<double>& out) const;

  /// out[r] = tree_0(row r); requires exactly one tree.  The single-tree
  /// (DecisionTree / RegressionTree) path, bit-identical to
  /// TreeModel::predict.
  void predict_into(const Matrix& x, std::span<double> out) const;

 private:
  // Node SoA, all trees contiguous; left_/right_ are absolute indices into
  // these arrays.  A leaf n has left_[n] == right_[n] == n (self-loop),
  // feature_[n] == 0 and its prediction in threshold_[n]; the walk parks on
  // it without a guard branch, and its comparisons are inconsequential.
  std::vector<std::int32_t> feature_;
  std::vector<double> threshold_;
  std::vector<std::int32_t> left_;
  std::vector<std::int32_t> right_;
  std::vector<std::int32_t> roots_;  // root node index per tree
};

}  // namespace mlaas
