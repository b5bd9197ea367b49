#include "ml/linear/linear_svm.h"

#include "ml/serialize.h"

#include <algorithm>
#include <cmath>

#include "linalg/dense_kernels.h"
#include "linalg/vector_ops.h"
#include "ml/feature/scalers.h"
#include "util/rng.h"

namespace mlaas {

LinearSvm::LinearSvm(const ParamMap& params, std::uint64_t seed) : seed_(seed) {
  const double c = params.get_double("C", 1.0);
  lambda_ = params.contains("lambda") ? params.get_double("lambda", 1e-3)
                                      : 1.0 / std::max(1e-8, c * 100.0);
  squared_hinge_ = params.get_string("loss", "hinge") == "squared_hinge";
  max_iter_ = std::clamp<long long>(params.get_int("max_iter", 100), 1, 500);
}

void LinearSvm::fit(const Matrix& x, const std::vector<int>& y) {
  w_.assign(x.cols(), 0.0);
  b_ = 0.0;
  if (check_single_class(y)) return;

  StandardScaler scaler;
  scaler.fit(x, y);
  const Matrix xs = scaler.transform(x);
  const auto ys = to_signed_labels(y);
  const std::size_t n = xs.rows();
  const std::size_t d = xs.cols();
  const double lambda = std::max(lambda_, 1e-8);

  std::vector<double> w(d, 0.0);
  double b = 0.0;
  Rng rng(derive_seed(seed_, "svm"));
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;

  std::size_t t = 1;
  for (long long epoch = 0; epoch < max_iter_; ++epoch) {
    rng.shuffle(order);
    for (std::size_t k = 0; k < n; ++k, ++t) {
      const std::size_t i = order[k];
      const auto row = xs.row(i);
      const double eta = 1.0 / (lambda * static_cast<double>(t));
      const double margin = ys[i] * (dot(w, row) + b);
      scale_inplace(w, 1.0 - eta * lambda);
      if (margin < 1.0) {
        // Hinge subgradient; squared hinge scales it by the violation
        // (clamped so early large-eta steps cannot blow up).
        const double g =
            squared_hinge_ ? std::min(2.0 * (1.0 - margin), 4.0) : 1.0;
        axpy(w, eta * g * ys[i], row);
        b += eta * g * ys[i] * 0.1;  // lightly-regularized intercept
      }
    }
  }

  const auto& mu = scaler.means();
  const auto& sd = scaler.stds();
  w_.resize(d);
  b_ = b;
  for (std::size_t c = 0; c < d; ++c) {
    w_[c] = w[c] / sd[c];
    b_ -= w[c] * mu[c] / sd[c];
  }
}

std::vector<double> LinearSvm::predict_score(const Matrix& x) const {
  std::vector<double> out;
  predict_score_into(x, out);
  return out;
}

void LinearSvm::predict_score_into(const Matrix& x,
                               std::vector<double>& out) const {
  if (fill_single_class(x.rows(), out)) return;
  out.resize(x.rows());
  matvec_into(x, w_, out);  // bit-identical to x.multiply(w_), no temporary
  for (double& v : out) v = sigmoid(v + b_);
}


void LinearSvm::save(std::ostream& out) const {
  save_base(out);
  model_io::write_vec(out, w_);
  model_io::write_double(out, b_);
}

void LinearSvm::load(std::istream& in) {
  load_base(in);
  w_ = model_io::read_vec(in);
  b_ = model_io::read_double(in);
}

}  // namespace mlaas
