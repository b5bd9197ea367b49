#include "ml/linear/lda.h"

#include <algorithm>
#include <cmath>

#include "linalg/vector_ops.h"
#include "util/rng.h"

namespace mlaas {

LinearDiscriminantAnalysis::LinearDiscriminantAnalysis(const ParamMap& params, std::uint64_t) {
  shrinkage_ = std::clamp(params.get_double("shrinkage", 0.0), 0.0, 1.0);
}

void LinearDiscriminantAnalysis::fit(const Matrix& x, const std::vector<int>& y) {
  if (start_fit(x.cols(), y)) return;

  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  std::vector<double> mean0(d, 0.0), mean1(d, 0.0);
  std::size_t n0 = 0, n1 = 0;
  for (std::size_t r = 0; r < n; ++r) {
    auto& m = y[r] == 1 ? mean1 : mean0;
    (y[r] == 1 ? n1 : n0) += 1;
    for (std::size_t c = 0; c < d; ++c) m[c] += x(r, c);
  }
  for (std::size_t c = 0; c < d; ++c) {
    mean0[c] /= static_cast<double>(n0);
    mean1[c] /= static_cast<double>(n1);
  }

  // Pooled within-class covariance.
  Matrix cov(d, d);
  for (std::size_t r = 0; r < n; ++r) {
    const auto& m = y[r] == 1 ? mean1 : mean0;
    for (std::size_t i = 0; i < d; ++i) {
      const double di = x(r, i) - m[i];
      for (std::size_t j = i; j < d; ++j) cov(i, j) += di * (x(r, j) - m[j]);
    }
  }
  const double denom = static_cast<double>(n > 2 ? n - 2 : 1);
  double trace = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = i; j < d; ++j) cov(i, j) /= denom;
    trace += cov(i, i);
  }
  const double avg_var = trace > 0 ? trace / static_cast<double>(d) : 1.0;
  // Shrink toward avg_var * I, plus a small ridge for numerical safety.
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = i; j < d; ++j) {
      cov(i, j) *= (1.0 - shrinkage_);
      if (i == j) cov(i, i) += shrinkage_ * avg_var + 1e-6 * avg_var;
      cov(j, i) = cov(i, j);
    }
  }

  std::vector<double> diff(d);
  for (std::size_t c = 0; c < d; ++c) diff[c] = mean1[c] - mean0[c];
  w_ = solve_spd(std::move(cov), std::move(diff));

  // Threshold at the midpoint of projected class means shifted by log prior.
  const double m0 = dot(w_, mean0);
  const double m1 = dot(w_, mean1);
  const double prior = std::log(static_cast<double>(n1) / static_cast<double>(n0));
  b_ = -(m0 + m1) / 2.0 + prior;
}

}  // namespace mlaas
