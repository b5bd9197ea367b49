// Ordinary-least-squares / ridge regression via the normal equations
// (Cholesky solve on X^T X + lambda I).
//
// Parameters:
//   alpha          ridge strength (default 0 = OLS; a tiny jitter keeps the
//                  normal equations solvable on collinear inputs)
//   fit_intercept  (default true)
#pragma once

#include "ml/regression/regressor.h"

namespace mlaas {

class LinearRegression final : public Regressor {
 public:
  explicit LinearRegression(const ParamMap& params = {}, std::uint64_t seed = 0);

  void fit(const Matrix& x, const std::vector<double>& y) override;
  /// Throws std::logic_error("<name>: predict before fit") before fit().
  std::vector<double> predict(const Matrix& x) const override;
  std::string name() const override { return alpha_ > 0 ? "ridge" : "linear_regression"; }

  const std::vector<double>& coefficients() const { return w_; }
  double intercept() const { return b_; }

 private:
  double alpha_;
  bool fit_intercept_;

  bool fitted_ = false;
  std::vector<double> w_;
  double b_ = 0.0;
};

}  // namespace mlaas
