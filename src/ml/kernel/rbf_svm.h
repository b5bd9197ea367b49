// RBF-kernel SVM trained with kernelized Pegasos.
//
// Used by the GooglePrediction simulator's non-linear arm (§6.1 infers that
// Google switches to a non-linear kernel classifier on datasets like CIRCLE)
// and available to the local library for kernel experiments.
//
// Parameters:
//   C         inverse regularization          (default 1.0)
//   gamma     RBF width; 0 = 1/n_features     (default 0)
//   max_iter  epochs                          (default 20, capped 100)
//
// The full kernel matrix is materialized when the training set is small
// enough (n <= 4096); larger sets fall back to on-the-fly kernel rows.
#pragma once

#include "ml/classifier.h"

namespace mlaas {

class RbfSvm final : public Classifier {
 public:
  explicit RbfSvm(const ParamMap& params = {}, std::uint64_t seed = 0);

  void fit(const Matrix& x, const std::vector<int>& y) override;
  void predict_score_into(const Matrix& x, std::vector<double>& out) const override;
  std::string name() const override { return "rbf_svm"; }
  bool is_linear() const override { return false; }

  void save(std::ostream& out) const override;
  void load(std::istream& in) override;

  /// Rows kept after zero-alpha pruning (== support_x_.rows()).
  std::size_t support_count() const { return support_x_.rows(); }

 private:
  double c_;
  double gamma_param_;
  long long max_iter_;
  std::uint64_t seed_;

  double gamma_ = 1.0;
  Matrix support_x_;             // standardized training points
  std::vector<double> alpha_;    // signed dual coefficients
  std::vector<double> feat_mean_, feat_std_;
};

}  // namespace mlaas
