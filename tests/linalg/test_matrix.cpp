#include "linalg/matrix.h"

#include <gtest/gtest.h>

#include <cmath>

namespace mlaas {
namespace {

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, RowSpanViewsUnderlyingData) {
  Matrix m{{1, 2}, {3, 4}};
  auto row = m.row(1);
  EXPECT_DOUBLE_EQ(row[0], 3.0);
  row[0] = 9.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 9.0);
}

TEST(Matrix, ColExtraction) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  const auto col = m.col(1);
  EXPECT_EQ(col, (std::vector<double>{2, 4, 6}));
}

TEST(Matrix, SetCol) {
  Matrix m(2, 2);
  const std::vector<double> v{7, 8};
  m.set_col(0, v);
  EXPECT_DOUBLE_EQ(m(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 8.0);
}

TEST(Matrix, SelectRows) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  const std::vector<std::size_t> idx{2, 0};
  const Matrix s = m.select_rows(idx);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_DOUBLE_EQ(s(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(s(1, 1), 2.0);
}

TEST(Matrix, SelectCols) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  const std::vector<std::size_t> idx{2, 1};
  const Matrix s = m.select_cols(idx);
  EXPECT_EQ(s.cols(), 2u);
  EXPECT_DOUBLE_EQ(s(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(s(1, 1), 5.0);
}

TEST(Matrix, Transpose) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Matrix, MatrixVectorMultiply) {
  Matrix m{{1, 2}, {3, 4}};
  const std::vector<double> v{1, 1};
  EXPECT_EQ(m.multiply(v), (std::vector<double>{3, 7}));
}

TEST(Matrix, MatrixMatrixMultiply) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{0, 1}, {1, 0}};
  const Matrix c = a.multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 3.0);
}

TEST(SolveSpd, SolvesIdentity) {
  Matrix eye{{1, 0}, {0, 1}};
  const auto x = solve_spd(eye, {3.0, -4.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], -4.0, 1e-12);
}

TEST(SolveSpd, SolvesGeneralSpd) {
  Matrix a{{4, 1}, {1, 3}};
  const std::vector<double> b{1, 2};
  const auto x = solve_spd(a, b);
  EXPECT_NEAR(4 * x[0] + 1 * x[1], 1.0, 1e-9);
  EXPECT_NEAR(1 * x[0] + 3 * x[1], 2.0, 1e-9);
}

TEST(SolveSpd, JitterHandlesSemidefinite) {
  // Rank-deficient matrix: jitter fallback should still return finite x.
  Matrix a{{1, 1}, {1, 1}};
  const auto x = solve_spd(a, {2.0, 2.0});
  EXPECT_TRUE(std::isfinite(x[0]));
  EXPECT_TRUE(std::isfinite(x[1]));
  EXPECT_NEAR(x[0] + x[1], 2.0, 1e-3);
}

TEST(SolveSpd, ShapeMismatchThrows) {
  Matrix a(2, 3);
  EXPECT_THROW(solve_spd(a, {1.0, 2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace mlaas
