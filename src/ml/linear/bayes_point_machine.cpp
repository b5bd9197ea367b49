#include "ml/linear/bayes_point_machine.h"

#include "ml/serialize.h"

#include <algorithm>
#include <cmath>

#include "linalg/dense_kernels.h"
#include "linalg/vector_ops.h"
#include "ml/feature/scalers.h"
#include "util/rng.h"

namespace mlaas {

BayesPointMachine::BayesPointMachine(const ParamMap& params, std::uint64_t seed)
    : seed_(seed) {
  training_iterations_ = std::clamp<long long>(params.get_int("training_iterations", 30), 1, 500);
  committee_size_ = static_cast<int>(std::clamp<long long>(params.get_int("committee_size", 9), 1, 64));
}

void BayesPointMachine::fit(const Matrix& x, const std::vector<int>& y) {
  w_.assign(x.cols(), 0.0);
  b_ = 0.0;
  if (check_single_class(y)) return;

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

  const auto& mu = scaler.means();
  const auto& sd = scaler.stds();
  w_.resize(d);
  b_ = b_avg;
  for (std::size_t c = 0; c < d; ++c) {
    w_[c] = w_avg[c] / sd[c];
    b_ -= w_avg[c] * mu[c] / sd[c];
  }
}

std::vector<double> BayesPointMachine::predict_score(const Matrix& x) const {
  std::vector<double> out;
  predict_score_into(x, out);
  return out;
}

void BayesPointMachine::predict_score_into(const Matrix& x,
                                           std::vector<double>& out) const {
  if (fill_single_class(x.rows(), out)) return;
  out.resize(x.rows());
  matvec_into(x, w_, out);  // bit-identical to x.multiply(w_), no temporary
  // Scale margins before the sigmoid so the committee average (unit norm)
  // still produces confident scores.
  for (double& v : out) v = sigmoid(4.0 * (v + b_));
}


void BayesPointMachine::save(std::ostream& out) const {
  save_base(out);
  model_io::write_vec(out, w_);
  model_io::write_double(out, b_);
}

void BayesPointMachine::load(std::istream& in) {
  load_base(in);
  w_ = model_io::read_vec(in);
  b_ = model_io::read_double(in);
}

}  // namespace mlaas
