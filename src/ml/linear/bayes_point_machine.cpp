#include "ml/linear/bayes_point_machine.h"

#include <algorithm>
#include <cmath>

#include "linalg/vector_ops.h"
#include "ml/feature/scalers.h"
#include "util/rng.h"

namespace mlaas {

// Margins are scaled by 4 before the sigmoid so the committee average (unit
// norm) still produces confident scores.
BayesPointMachine::BayesPointMachine(const ParamMap& params, std::uint64_t seed)
    : LinearModel(4.0), seed_(seed) {
  training_iterations_ = std::clamp<long long>(params.get_int("training_iterations", 30), 1, 500);
  committee_size_ = static_cast<int>(std::clamp<long long>(params.get_int("committee_size", 9), 1, 64));
}

void BayesPointMachine::fit(const Matrix& x, const std::vector<int>& y) {
  if (start_fit(x.cols(), y)) return;

  StandardScaler scaler;
  scaler.fit(x, y);
  const Matrix xs = scaler.transform(x);
  const auto ys = to_signed_labels(y);
  const std::size_t n = xs.rows();
  const std::size_t d = xs.cols();

  std::vector<double> w_avg(d, 0.0);
  double b_avg = 0.0;
  for (int member = 0; member < committee_size_; ++member) {
    Rng rng(derive_seed(seed_, "bpm-" + std::to_string(member)));
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::vector<double> w(d, 0.0);
    double b = 0.0;
    for (long long epoch = 0; epoch < training_iterations_; ++epoch) {
      rng.shuffle(order);
      bool any_mistake = false;
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = order[k];
        const auto row = xs.row(i);
        if (ys[i] * (dot(w, row) + b) <= 0.0) {
          axpy(w, ys[i], row);
          b += ys[i];
          any_mistake = true;
        }
      }
      if (!any_mistake) break;
    }
    // Project each version-space sample to the unit sphere before averaging,
    // as in the BPM construction.
    const double norm = std::sqrt(dot(w, w) + b * b);
    if (norm > 0) {
      axpy(w_avg, 1.0 / norm, w);
      b_avg += b / norm;
    }
  }

  set_from_standardized(w_avg, b_avg, scaler);
}

}  // namespace mlaas
