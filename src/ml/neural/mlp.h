// Multi-layer perceptron (Rumelhart, Hinton & Williams 1988) — the local
// library's MLPClassifier.
//
// One or two hidden layers trained with mini-batch backprop (SGD with
// momentum, or Adam) on logistic loss.  Features are standardized
// internally for optimization stability.
//
// Parameters (local library row of Table 1):
//   activation   "relu" | "tanh" | "logistic"      (default "relu")
//   solver       "adam" | "sgd"                    (default "adam")
//   alpha        L2 penalty                        (default 1e-4)
//   hidden       hidden layer width                (default 12)
//   layers       1 or 2 hidden layers              (default 1)
//   max_iter     epochs                            (default 40, capped 400)
#pragma once

#include "ml/classifier.h"

namespace mlaas {

/// Hidden-layer activation of MultiLayerPerceptron (the output unit is
/// always logistic).
enum class MlpActivation { kRelu, kTanh, kLogistic };

class MultiLayerPerceptron final : public Classifier {
 public:
  /// Throws std::invalid_argument for an unknown activation name.
  explicit MultiLayerPerceptron(const ParamMap& params = {}, std::uint64_t seed = 0);

  void fit(const Matrix& x, const std::vector<int>& y) override;
  void predict_score_into(const Matrix& x, std::vector<double>& out) const override;
  std::string name() const override { return "mlp"; }
  bool is_linear() const override { return false; }

  void save(std::ostream& out) const override;
  void load(std::istream& in) override;

 private:
  MlpActivation activation_;
  bool adam_;
  double alpha_;
  std::size_t hidden_;
  int layers_;
  long long max_iter_;
  std::uint64_t seed_;

  // Fitted parameters (weights per layer, row-major [out][in]) and the
  // standardization folded into the first layer at predict time.
  std::vector<Matrix> weights_;
  std::vector<std::vector<double>> biases_;
  std::vector<double> feat_mean_, feat_std_;
};

}  // namespace mlaas
