#include "ml/linear/logistic_regression.h"

#include "ml/serialize.h"

#include <algorithm>
#include <cmath>

#include "linalg/dense_kernels.h"
#include "linalg/vector_ops.h"
#include "ml/feature/scalers.h"
#include "util/rng.h"

namespace mlaas {

namespace {
constexpr long long kMaxEpochs = 500;

double soft_threshold(double w, double t) {
  if (w > t) return w - t;
  if (w < -t) return w + t;
  return 0.0;
}
}  // namespace

LogisticRegression::LogisticRegression(const ParamMap& params, std::uint64_t seed)
    : seed_(seed) {
  penalty_ = params.get_string("penalty", "l2");
  const double c = params.get_double("C", 1.0);
  lambda_ = params.contains("reg_param") ? params.get_double("reg_param", 0.01)
                                         : 1.0 / std::max(1e-8, c);
  if (penalty_ == "none") lambda_ = 0.0;
  max_iter_ = std::clamp<long long>(params.get_int("max_iter", 100), 1, kMaxEpochs);
  fit_intercept_ = params.get_bool("fit_intercept", true);
  const std::string solver = params.get_string("solver", "sgd");
  full_batch_ = solver == "gd" || solver == "lbfgs" || solver == "liblinear";
  shuffle_ = params.get_string("shuffle_type", "auto") != "none";
  tolerance_ = params.get_double("tolerance", 1e-4);
}

void LogisticRegression::fit(const Matrix& x, const std::vector<int>& y) {
  w_.assign(x.cols(), 0.0);
  b_ = 0.0;
  if (check_single_class(y)) return;

  StandardScaler scaler;
  scaler.fit(x, y);
  const Matrix xs = scaler.transform(x);
  const std::size_t n = xs.rows();
  const std::size_t d = xs.cols();
  // Per-sample regularization scale: total penalty ~ lambda/2 |w|^2.
  const double reg = lambda_ / static_cast<double>(n);

  std::vector<double> w(d, 0.0);
  double b = 0.0;
  Rng rng(derive_seed(seed_, "lr"));
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;

  // Cumulative-penalty L1 state (Tsuruoka, Tsujii & Ananiadou 2009): naive
  // per-sample soft-thresholding over-shrinks; instead track the total
  // penalty each weight *should* have received (u) and the amount it has
  // actually received (q), and clip against the difference.
  double l1_u = 0.0;
  std::vector<double> l1_q(penalty_ == "l1" && !full_batch_ ? d : 0, 0.0);
  auto apply_cumulative_l1 = [&](double eta_reg) {
    l1_u += eta_reg;
    for (std::size_t c = 0; c < d; ++c) {
      const double z = w[c];
      if (z > 0) {
        w[c] = std::max(0.0, z - (l1_u + l1_q[c]));
      } else if (z < 0) {
        w[c] = std::min(0.0, z + (l1_u - l1_q[c]));
      }
      l1_q[c] += w[c] - z;
    }
  };

  double prev_loss = std::numeric_limits<double>::infinity();
  const double eta0 = 0.5;
  std::size_t t = 0;
  for (long long epoch = 0; epoch < max_iter_; ++epoch) {
    double loss = 0.0;
    if (full_batch_) {
      std::vector<double> grad(d, 0.0);
      double grad_b = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const auto row = xs.row(i);
        const double z = dot(w, row) + b;
        const double p = sigmoid(z);
        const double g = p - (y[i] == 1 ? 1.0 : 0.0);
        axpy(grad, g / static_cast<double>(n), row);
        grad_b += g / static_cast<double>(n);
        loss += y[i] == 1 ? log1p_exp(-z) : log1p_exp(z);
      }
      const double eta = eta0 / (1.0 + static_cast<double>(epoch) / 20.0);
      for (std::size_t c = 0; c < d; ++c) {
        double wc = w[c] - eta * (grad[c] + (penalty_ == "l2" ? reg * w[c] : 0.0));
        if (penalty_ == "l1") wc = soft_threshold(wc, eta * reg);
        w[c] = wc;
      }
      if (fit_intercept_) b -= eta * grad_b;
    } else {
      if (shuffle_) rng.shuffle(order);
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = order[k];
        const auto row = xs.row(i);
        const double z = dot(w, row) + b;
        const double p = sigmoid(z);
        const double g = p - (y[i] == 1 ? 1.0 : 0.0);
        const double eta = eta0 / (1.0 + eta0 * std::max(reg, 1e-4) * static_cast<double>(t++));
        if (penalty_ == "l2") {
          for (std::size_t c = 0; c < d; ++c) w[c] -= eta * (g * row[c] + reg * w[c]);
        } else {
          axpy(w, -eta * g, row);
          if (penalty_ == "l1") apply_cumulative_l1(eta * reg);
        }
        if (fit_intercept_) b -= eta * g;
        loss += y[i] == 1 ? log1p_exp(-z) : log1p_exp(z);
      }
    }
    loss /= static_cast<double>(n);
    if (std::abs(prev_loss - loss) < tolerance_ * std::max(1.0, std::abs(prev_loss))) break;
    prev_loss = loss;
  }

  // Fold standardization into the weights: w_raw = w/std, b_raw = b - Σ w*mu/std.
  const auto& mu = scaler.means();
  const auto& sd = scaler.stds();
  w_.resize(d);
  b_ = b;
  for (std::size_t c = 0; c < d; ++c) {
    w_[c] = w[c] / sd[c];
    b_ -= w[c] * mu[c] / sd[c];
  }
}

std::vector<double> LogisticRegression::predict_score(const Matrix& x) const {
  std::vector<double> out;
  predict_score_into(x, out);
  return out;
}

void LogisticRegression::predict_score_into(const Matrix& x,
                                            std::vector<double>& out) const {
  if (fill_single_class(x.rows(), out)) return;
  out.resize(x.rows());
  matvec_into(x, w_, out);  // bit-identical to x.multiply(w_), no temporary
  for (double& v : out) v = sigmoid(v + b_);
}


void LogisticRegression::save(std::ostream& out) const {
  save_base(out);
  model_io::write_vec(out, w_);
  model_io::write_double(out, b_);
}

void LogisticRegression::load(std::istream& in) {
  load_base(in);
  w_ = model_io::read_vec(in);
  b_ = model_io::read_double(in);
}

}  // namespace mlaas
