#include "linalg/matrix.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace mlaas {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) throw std::invalid_argument("Matrix: ragged initializer");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

std::vector<double> Matrix::col(std::size_t c) const {
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::set_col(std::size_t c, std::span<const double> values) {
  assert(values.size() == rows_);
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = values[r];
}

Matrix Matrix::select_rows(std::span<const std::size_t> idx) const {
  Matrix out(idx.size(), cols_);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    assert(idx[i] < rows_);
    auto src = row(idx[i]);
    auto dst = out.row(i);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  return out;
}

Matrix Matrix::select_cols(std::span<const std::size_t> idx) const {
  Matrix out(rows_, idx.size());
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t i = 0; i < idx.size(); ++i) {
      assert(idx[i] < cols_);
      out(r, i) = (*this)(r, idx[i]);
    }
  }
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

std::vector<double> Matrix::multiply(std::span<const double> v) const {
  assert(v.size() == cols_);
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const double* p = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) acc += p[c] * v[c];
    out[r] = acc;
  }
  return out;
}

Matrix Matrix::multiply(const Matrix& other) const {
  assert(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < other.cols_; ++c) out(r, c) += a * other(k, c);
    }
  }
  return out;
}

std::vector<double> solve_spd(Matrix a, std::vector<double> b) {
  const std::size_t n = a.rows();
  if (a.cols() != n || b.size() != n) throw std::invalid_argument("solve_spd: shape mismatch");

  // Average magnitude of the diagonal drives the jitter scale.
  double diag_scale = 0.0;
  for (std::size_t i = 0; i < n; ++i) diag_scale += std::abs(a(i, i));
  diag_scale = diag_scale > 0 ? diag_scale / static_cast<double>(n) : 1.0;

  for (double jitter = 0.0;; jitter = jitter == 0.0 ? 1e-10 * diag_scale : jitter * 100) {
    if (jitter > diag_scale) throw std::runtime_error("solve_spd: matrix not SPD");
    Matrix l(n, n);
    bool ok = true;
    for (std::size_t i = 0; i < n && ok; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        double sum = a(i, j) + (i == j ? jitter : 0.0);
        for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
        if (i == j) {
          if (sum <= 0.0 || !std::isfinite(sum)) {
            ok = false;
            break;
          }
          l(i, i) = std::sqrt(sum);
        } else {
          l(i, j) = sum / l(j, j);
        }
      }
    }
    if (!ok) continue;
    // Forward substitution: L y = b.
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
      double sum = b[i];
      for (std::size_t k = 0; k < i; ++k) sum -= l(i, k) * y[k];
      y[i] = sum / l(i, i);
    }
    // Back substitution: L^T x = y.
    std::vector<double> x(n);
    for (std::size_t ii = n; ii-- > 0;) {
      double sum = y[ii];
      for (std::size_t k = ii + 1; k < n; ++k) sum -= l(k, ii) * x[k];
      x[ii] = sum / l(ii, ii);
    }
    return x;
  }
}

}  // namespace mlaas
