// Property tests over every scaler/normalizer: shape preservation,
// train-statistics reuse, and finiteness on adversarial inputs.
#include <gtest/gtest.h>

#include <cmath>

#include "data/generators.h"
#include "ml/feature/scalers.h"
#include "util/rng.h"

namespace mlaas {
namespace {

const char* kScalerNames[] = {"standard_scaler", "minmax_scaler", "maxabs_scaler",
                              "l1_normalizer",   "l2_normalizer", "gaussian_norm"};

class ScalerProperty : public ::testing::TestWithParam<const char*> {};

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed,
                     double scale = 1.0) {
  Rng rng(seed);
  Matrix x(rows, cols);
  for (double& v : x.data()) v = rng.normal(0.0, scale);
  return x;
}

TEST_P(ScalerProperty, PreservesShape) {
  auto scaler = make_scaler(GetParam());
  const Matrix x = random_matrix(30, 5, 1);
  scaler->fit(x, {});
  const Matrix t = scaler->transform(x);
  EXPECT_EQ(t.rows(), 30u);
  EXPECT_EQ(t.cols(), 5u);
}

TEST_P(ScalerProperty, TransformsUnseenDataWithTrainStatistics) {
  auto scaler = make_scaler(GetParam());
  const Matrix train = random_matrix(50, 4, 2);
  const Matrix test = random_matrix(20, 4, 3, 5.0);  // wider than train
  scaler->fit(train, {});
  const Matrix t = scaler->transform(test);
  for (double v : t.data()) EXPECT_TRUE(std::isfinite(v)) << GetParam();
}

TEST_P(ScalerProperty, FiniteOnConstantColumns) {
  auto scaler = make_scaler(GetParam());
  Matrix x(10, 2);
  for (std::size_t r = 0; r < 10; ++r) {
    x(r, 0) = 3.0;                          // constant
    x(r, 1) = static_cast<double>(r);       // varying
  }
  scaler->fit(x, {});
  const Matrix t = scaler->transform(x);
  for (double v : t.data()) EXPECT_TRUE(std::isfinite(v)) << GetParam();
}

TEST_P(ScalerProperty, FiniteOnExtremeMagnitudes) {
  auto scaler = make_scaler(GetParam());
  Matrix x(12, 2);
  Rng rng(7);
  for (std::size_t r = 0; r < 12; ++r) {
    x(r, 0) = rng.normal(0.0, 1e12);
    x(r, 1) = rng.normal(0.0, 1e-12);
  }
  scaler->fit(x, {});
  const Matrix t = scaler->transform(x);
  for (double v : t.data()) EXPECT_TRUE(std::isfinite(v)) << GetParam();
}

TEST_P(ScalerProperty, DeterministicTransform) {
  auto a = make_scaler(GetParam());
  auto b = make_scaler(GetParam());
  const Matrix x = random_matrix(25, 3, 11);
  a->fit(x, {});
  b->fit(x, {});
  const Matrix ta = a->transform(x);
  const Matrix tb = b->transform(x);
  for (std::size_t i = 0; i < ta.data().size(); ++i) {
    EXPECT_DOUBLE_EQ(ta.data()[i], tb.data()[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllScalers, ScalerProperty, ::testing::ValuesIn(kScalerNames));

}  // namespace
}  // namespace mlaas
