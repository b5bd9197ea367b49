#include "ml/regression/linear_regression.h"

#include <algorithm>
#include <stdexcept>

#include "linalg/stats.h"
#include "linalg/vector_ops.h"

namespace mlaas {

LinearRegression::LinearRegression(const ParamMap& params, std::uint64_t) {
  alpha_ = std::max(0.0, params.get_double("alpha", 0.0));
  fit_intercept_ = params.get_bool("fit_intercept", true);
}

void LinearRegression::fit(const Matrix& x, const std::vector<double>& y) {
  if (x.rows() != y.size()) throw std::invalid_argument("LinearRegression: size mismatch");
  const std::size_t d = x.cols();
  w_.assign(d, 0.0);
  b_ = 0.0;
  fitted_ = true;
  if (x.rows() == 0) return;

  // Center targets/features when fitting an intercept: keeps the normal
  // equations well-conditioned and gives the intercept in closed form.
  std::vector<double> x_mean(d, 0.0);
  double y_mean = 0.0;
  if (fit_intercept_) {
    for (std::size_t c = 0; c < d; ++c) x_mean[c] = mean(x.col(c));
    y_mean = mean(y);
  }

  Matrix gram(d, d);
  std::vector<double> xty(d, 0.0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t i = 0; i < d; ++i) {
      const double xi = x(r, i) - x_mean[i];
      xty[i] += xi * (y[r] - y_mean);
      for (std::size_t j = i; j < d; ++j) {
        gram(i, j) += xi * (x(r, j) - x_mean[j]);
      }
    }
  }
  double trace = 0.0;
  for (std::size_t i = 0; i < d; ++i) trace += gram(i, i);
  const double scale = trace > 0 ? trace / static_cast<double>(d) : 1.0;
  for (std::size_t i = 0; i < d; ++i) {
    gram(i, i) += alpha_ + 1e-10 * scale;  // ridge + numerical jitter
    for (std::size_t j = i + 1; j < d; ++j) gram(j, i) = gram(i, j);
  }
  w_ = solve_spd(std::move(gram), std::move(xty));
  b_ = y_mean - dot(w_, x_mean);
}

std::vector<double> LinearRegression::predict(const Matrix& x) const {
  if (!fitted_) throw std::logic_error(name() + ": predict before fit");
  auto out = x.multiply(w_);
  for (double& v : out) v += b_;
  return out;
}

}  // namespace mlaas
