// Test-only reference oracle for the classifiers' predict paths: the
// per-row scoring loops each classifier ran before its batched kernel
// (flattened tree ensembles, blocked matvec and distance tiles, fused kNN
// selection) became its only path.  See tests/oracle/mlp_fit.h for what the
// oracles are for.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "ml/classifier.h"
#include "ml/tree/tree_model.h"

namespace mlaas::oracle {

/// The per-tree walk the tree ensembles scored with: out[r] += scale *
/// tree(row r), row by row in blocks.  When `feature_map` is non-empty,
/// node feature f reads x(r, feature_map[f]), which is how a bagged member
/// trained on a column subset scores the full matrix.
void reference_tree_accumulate(const TreeModel& tree, const Matrix& x, double scale,
                               std::span<double> out,
                               std::span<const std::size_t> feature_map = {});

/// A fitted registry classifier's scoring state, read once from the bytes
/// its save() writes (with the public model_io readers and TreeModel::load),
/// then scored with the reference loops:
///   - the five linear models: x.multiply(w), then the sigmoid per row
///   - mlp: a per-row forward pass with a fresh vector per layer
///   - rbf_svm: one squared_distance and exp per (row, support vector)
///   - knn: every (row, train row) distance, partial_sort, vote
///   - naive_bayes: its per-row Gaussian log-likelihoods
///   - the tree family: each TreeModel walked over the whole query matrix,
///     one tree after another (bagged members through their feature map)
/// Parsing happens at construction, so predict_score times scoring alone.
class ReferencePredictor {
 public:
  /// Reads `classifier`'s state from the bytes its save() writes.
  explicit ReferencePredictor(const Classifier& classifier);
  /// Reads the state of registry classifier `name` from `saved`, the bytes
  /// its save() writes.
  ReferencePredictor(const std::string& name, const std::string& saved);
  ~ReferencePredictor();

  /// Classifier::predict_score, through the reference loop.
  std::vector<double> predict_score(const Matrix& x) const;
  /// predict_score thresholded at 0.5, as Classifier::predict does.
  std::vector<int> predict(const Matrix& x) const;

 private:
  struct State;
  std::unique_ptr<const State> state_;
};

}  // namespace mlaas::oracle
