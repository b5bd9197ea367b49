// Shared body of the linear family (Table 5): logistic regression, linear
// SVM, averaged perceptron, Bayes point machine and LDA all score
// sigmoid(margin_scale * (x·w + b)) and serialize (w, b).  LinearModel owns
// the weights, that scorer and the serialization; each subclass keeps only
// its constructor and the fit() that finds w and b.
#pragma once

#include "ml/classifier.h"

namespace mlaas {

class StandardScaler;

class LinearModel : public Classifier {
 public:
  void predict_score_into(const Matrix& x, std::vector<double>& out) const final;
  bool is_linear() const final { return true; }

  /// Base state, then w, then b.
  void save(std::ostream& out) const final;
  void load(std::istream& in) final;

  const std::vector<double>& weights() const { return w_; }
  double intercept() const { return b_; }

 protected:
  /// `margin_scale` multiplies x·w + b before the sigmoid.  It is a fixed
  /// property of the subclass, not a hyper-parameter: 1.0 leaves the margin
  /// bit for bit unchanged.
  explicit LinearModel(double margin_scale = 1.0) : margin_scale_(margin_scale) {}

  /// fit() prologue: zero weights of width d and record a single-class y;
  /// true when y is single-class and there is nothing left to fit.
  bool start_fit(std::size_t d, const std::vector<int>& y);

  /// Fold weights learned on `scaler`-standardized features back onto raw
  /// inputs: w_raw = w / std, b_raw = b - Σ w * mu / std.
  void set_from_standardized(const std::vector<double>& w, double b,
                             const StandardScaler& scaler);

  std::vector<double> w_;
  double b_ = 0.0;

 private:
  double margin_scale_;
};

}  // namespace mlaas
