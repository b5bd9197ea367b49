// (Fisher) Linear Discriminant Analysis.
//
// Parameters (local library row of Table 1):
//   solver     "lsqr" | "eigen"   (both solve the pooled-covariance system;
//              kept for grid parity with sklearn)
//   shrinkage  in [0,1]: blends the pooled covariance toward a scaled
//              identity (Ledoit-Wolf-style regularization; default 0 plus a
//              tiny ridge for numerical safety)
#pragma once

#include "ml/linear/linear_model.h"

namespace mlaas {

class LinearDiscriminantAnalysis final : public LinearModel {
 public:
  explicit LinearDiscriminantAnalysis(const ParamMap& params = {}, std::uint64_t seed = 0);

  void fit(const Matrix& x, const std::vector<int>& y) override;
  std::string name() const override { return "lda"; }

 private:
  double shrinkage_;
};

}  // namespace mlaas
