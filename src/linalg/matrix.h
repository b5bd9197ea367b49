// Dense row-major matrix of doubles.
//
// Deliberately small: the ML library needs row access, transpose-multiply and
// a symmetric-solve (for LDA); nothing here aspires to be a BLAS.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace mlaas {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// Construct from nested initializer list (rows of equal length).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  std::span<double> row(std::size_t r) { return {data_.data() + r * cols_, cols_}; }
  std::span<const double> row(std::size_t r) const { return {data_.data() + r * cols_, cols_}; }

  std::vector<double> col(std::size_t c) const;
  void set_col(std::size_t c, std::span<const double> values);

  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  /// Select a subset of rows (by index) into a new matrix.
  Matrix select_rows(std::span<const std::size_t> idx) const;
  /// Select a subset of columns (by index) into a new matrix.
  Matrix select_cols(std::span<const std::size_t> idx) const;

  Matrix transposed() const;

  /// this * v  (v.size() == cols()).
  std::vector<double> multiply(std::span<const double> v) const;
  /// this * other.
  Matrix multiply(const Matrix& other) const;

  bool operator==(const Matrix&) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solve A x = b for symmetric positive-(semi)definite A using Cholesky with
/// diagonal jitter fallback.  Throws std::runtime_error if A is unusable.
std::vector<double> solve_spd(Matrix a, std::vector<double> b);

}  // namespace mlaas
