#include "ml/kernel/rbf_svm.h"

#include "ml/serialize.h"

#include <algorithm>
#include <cmath>

#include "linalg/dense_kernels.h"
#include "linalg/vector_ops.h"
#include "ml/feature/scalers.h"
#include "util/rng.h"

namespace mlaas {

RbfSvm::RbfSvm(const ParamMap& params, std::uint64_t seed) : seed_(seed) {
  c_ = std::max(1e-6, params.get_double("C", 1.0));
  gamma_param_ = std::max(0.0, params.get_double("gamma", 0.0));
  max_iter_ = std::clamp<long long>(params.get_int("max_iter", 20), 1, 100);
}

void RbfSvm::fit(const Matrix& x, const std::vector<int>& y) {
  alpha_.clear();
  if (check_single_class(y)) return;

  StandardScaler scaler;
  scaler.fit(x, y);
  support_x_ = scaler.transform(x);
  feat_mean_ = scaler.means();
  feat_std_ = scaler.stds();
  const std::size_t n = support_x_.rows();
  gamma_ = gamma_param_ > 0 ? gamma_param_ : 1.0 / static_cast<double>(x.cols());
  const double lambda = 1.0 / (c_ * static_cast<double>(n));
  const auto ys = to_signed_labels(y);

  // Kernel cache for small problems.
  const bool cache = n <= 4096;
  Matrix k;
  if (cache) {
    k = Matrix(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      k(i, i) = 1.0;
      for (std::size_t j = i + 1; j < n; ++j) {
        const double v = std::exp(-gamma_ * squared_distance(support_x_.row(i),
                                                             support_x_.row(j)));
        k(i, j) = v;
        k(j, i) = v;
      }
    }
  }
  // Kernelized Pegasos: alpha_[i] counts margin violations of point i; the
  // decision function at step t is (1/(lambda t)) sum_i alpha_i y_i K(x_i, .)
  std::vector<double> counts(n, 0.0);
  Rng rng(derive_seed(seed_, "rbfsvm"));
  std::size_t t = 1;
  for (long long epoch = 0; epoch < max_iter_; ++epoch) {
    for (std::size_t step = 0; step < n; ++step, ++t) {
      const std::size_t i = rng.index(n);
      double f = 0.0;
      if (cache) {
        // K is symmetric, so column i is row i: one contiguous span instead
        // of n strided element accesses.
        const auto krow = k.row(i);
        for (std::size_t j = 0; j < n; ++j) {
          if (counts[j] != 0.0) f += counts[j] * ys[j] * krow[j];
        }
      } else {
        for (std::size_t j = 0; j < n; ++j) {
          if (counts[j] != 0.0) {
            f += counts[j] * ys[j] *
                 std::exp(-gamma_ * squared_distance(support_x_.row(j),
                                                     support_x_.row(i)));
          }
        }
      }
      f /= lambda * static_cast<double>(t);
      if (ys[i] * f < 1.0) counts[i] += 1.0;
    }
  }
  alpha_.resize(n);
  const double scale = 1.0 / (lambda * static_cast<double>(t));
  for (std::size_t i = 0; i < n; ++i) alpha_[i] = counts[i] * ys[i] * scale;

  // Points that never violated the margin have alpha exactly 0 and cannot
  // contribute to the decision function; drop them so predict_score (and
  // the serialized model) only touch real support vectors.  The surviving
  // rows keep their relative order, so scores are bit-identical.
  std::vector<std::size_t> support;
  support.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (alpha_[i] != 0.0) support.push_back(i);
  }
  if (support.size() < n) {
    Matrix pruned = support_x_.select_rows(support);
    std::vector<double> pruned_alpha(support.size());
    for (std::size_t i = 0; i < support.size(); ++i) pruned_alpha[i] = alpha_[support[i]];
    support_x_ = std::move(pruned);
    alpha_ = std::move(pruned_alpha);
  }
}

void RbfSvm::predict_score_into(const Matrix& x, std::vector<double>& out) const {
  if (fill_single_class(x.rows(), out)) return;
  out.resize(x.rows());
  // All query-to-support distances are computed as blocked tiles, two query
  // rows per pass over the support matrix (bit-identical to
  // squared_distance per pair); the remaining exp accumulation runs over
  // each distance vector in the same support order.
  const std::size_t m = support_x_.rows();
  thread_local std::vector<double> q0;
  thread_local std::vector<double> q1;
  thread_local std::vector<double> d2a;
  thread_local std::vector<double> d2b;
  q0.resize(x.cols());
  q1.resize(x.cols());
  d2a.resize(m);
  d2b.resize(m);
  const auto scale_row = [&](std::size_t r, std::vector<double>& q) {
    const auto row = x.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) {
      q[c] = (row[c] - feat_mean_[c]) / feat_std_[c];
    }
  };
  const auto score = [&](std::span<const double> d2) {
    double f = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      if (alpha_[i] != 0.0) f += alpha_[i] * std::exp(-gamma_ * d2[i]);
    }
    return sigmoid(f);
  };
  std::size_t r = 0;
  for (; r + 2 <= x.rows(); r += 2) {
    scale_row(r, q0);
    scale_row(r + 1, q1);
    squared_distance_block2(q0, q1, support_x_, d2a, d2b);
    out[r] = score(d2a);
    out[r + 1] = score(d2b);
  }
  for (; r < x.rows(); ++r) {
    scale_row(r, q0);
    squared_distance_block(q0, support_x_, d2a);
    out[r] = score(d2a);
  }
}


void RbfSvm::save(std::ostream& out) const {
  save_base(out);
  model_io::write_double(out, gamma_);
  model_io::write_vec(out, alpha_);
  model_io::write_matrix(out, support_x_);
  model_io::write_vec(out, feat_mean_);
  model_io::write_vec(out, feat_std_);
}

void RbfSvm::load(std::istream& in) {
  load_base(in);
  gamma_ = model_io::read_double(in);
  alpha_ = model_io::read_vec(in);
  support_x_ = model_io::read_matrix(in);
  feat_mean_ = model_io::read_vec(in);
  feat_std_ = model_io::read_vec(in);
}

}  // namespace mlaas
