// Logistic regression trained by (averaged) stochastic gradient descent.
//
// This single implementation backs every platform's LR offering; platforms
// differ only in defaults and which parameters they expose (Table 1):
//   penalty       "l2" | "l1" | "none"            (default "l2")
//   C             inverse regularization strength (default 1.0)
//   reg_param     lambda alternative to C (Amazon/PredictionIO style);
//                 when present it overrides C (lambda = reg_param)
//   max_iter      SGD epochs                       (default 100, capped 500)
//   fit_intercept                                  (default true)
//   solver        "sgd" | "gd" | "lbfgs" | "liblinear" | "saga"
//                 (gd/lbfgs/liblinear run full-batch; others run SGD)
//   tolerance     relative loss-improvement stop   (default 1e-4)
//   shuffle_type  "auto" | "none"  (Amazon's shuffleType)
//
// Features are standardized internally (training-set statistics) so SGD is
// scale-robust; the learned weights are folded back so predict works on raw
// inputs.
#pragma once

#include "ml/linear/linear_model.h"

namespace mlaas {

class LogisticRegression final : public LinearModel {
 public:
  explicit LogisticRegression(const ParamMap& params = {}, std::uint64_t seed = 0);

  void fit(const Matrix& x, const std::vector<int>& y) override;
  std::string name() const override { return "logistic_regression"; }

 private:
  std::string penalty_;
  double lambda_;
  long long max_iter_;
  bool fit_intercept_;
  bool full_batch_;
  bool shuffle_;
  double tolerance_;
  std::uint64_t seed_;
};

}  // namespace mlaas
