#include "ml/linear/averaged_perceptron.h"

#include <algorithm>

#include "linalg/vector_ops.h"
#include "ml/feature/scalers.h"
#include "util/rng.h"

namespace mlaas {

AveragedPerceptron::AveragedPerceptron(const ParamMap& params, std::uint64_t seed)
    : seed_(seed) {
  learning_rate_ = params.get_double("learning_rate", 1.0);
  max_iter_ = std::clamp<long long>(params.get_int("max_iter", 10), 1, 500);
}

void AveragedPerceptron::fit(const Matrix& x, const std::vector<int>& y) {
  if (start_fit(x.cols(), y)) return;

  StandardScaler scaler;
  scaler.fit(x, y);
  const Matrix xs = scaler.transform(x);
  const auto ys = to_signed_labels(y);
  const std::size_t n = xs.rows();
  const std::size_t d = xs.cols();

  std::vector<double> w(d, 0.0), w_sum(d, 0.0);
  double b = 0.0, b_sum = 0.0;
  std::size_t updates = 0;
  Rng rng(derive_seed(seed_, "perceptron"));
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;

  for (long long epoch = 0; epoch < max_iter_; ++epoch) {
    rng.shuffle(order);
    bool any_mistake = false;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = order[k];
      const auto row = xs.row(i);
      if (ys[i] * (dot(w, row) + b) <= 0.0) {
        axpy(w, learning_rate_ * ys[i], row);
        b += learning_rate_ * ys[i];
        any_mistake = true;
      }
      axpy(std::span<double>(w_sum), 1.0, w);
      b_sum += b;
      ++updates;
    }
    if (!any_mistake) break;  // converged on separable data
  }

  const double inv = 1.0 / static_cast<double>(std::max<std::size_t>(1, updates));
  for (double& v : w_sum) v *= inv;
  set_from_standardized(w_sum, b_sum * inv, scaler);
}

}  // namespace mlaas
