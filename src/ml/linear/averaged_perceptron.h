// Averaged perceptron (Freund & Schapire 1999) — Microsoft's "Averaged
// Perceptron" classifier (Table 1).
//
// Parameters: learning_rate (default 1.0), max_iter (default 10).
// The returned model is the average of all intermediate weight vectors,
// which gives large-margin-like behaviour on separable data.
#pragma once

#include "ml/linear/linear_model.h"

namespace mlaas {

class AveragedPerceptron final : public LinearModel {
 public:
  explicit AveragedPerceptron(const ParamMap& params = {}, std::uint64_t seed = 0);

  void fit(const Matrix& x, const std::vector<int>& y) override;
  std::string name() const override { return "averaged_perceptron"; }

 private:
  double learning_rate_;
  long long max_iter_;
  std::uint64_t seed_;
};

}  // namespace mlaas
