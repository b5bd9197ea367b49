#include "linalg/vector_ops.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <vector>

namespace mlaas {
namespace {

TEST(VectorOps, Dot) {
  const std::vector<double> a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
}

TEST(VectorOps, Norms) {
  const std::vector<double> v{3, -4};
  EXPECT_DOUBLE_EQ(norm2(v), 5.0);
  EXPECT_DOUBLE_EQ(norm1(v), 7.0);
}

TEST(VectorOps, Axpy) {
  std::vector<double> a{1, 1};
  const std::vector<double> b{2, 3};
  axpy(a, 2.0, b);
  EXPECT_EQ(a, (std::vector<double>{5, 7}));
}

TEST(VectorOps, ScaleInplace) {
  std::vector<double> a{2, -4};
  scale_inplace(a, 0.5);
  EXPECT_EQ(a, (std::vector<double>{1, -2}));
}

TEST(VectorOps, SquaredDistance) {
  const std::vector<double> a{0, 0}, b{3, 4};
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 25.0);
}

TEST(VectorOps, MinkowskiP1IsManhattan) {
  const std::vector<double> a{0, 0}, b{3, -4};
  EXPECT_DOUBLE_EQ(minkowski_distance(a, b, 1.0), 7.0);
}

TEST(VectorOps, MinkowskiP1BitEqualToPowFormula) {
  // The Manhattan branch must return exactly what the general formula
  // returned before it existed: pow(|a_i - b_i|, 1.0) summed in order from
  // 0.0, then pow(acc, 1.0).  Entries mix ordinary values with zeros,
  // subnormals, powers of two and +-Inf (Inf - Inf gives NaN sums too).
  // The exponent is read at run time, as it was in the old code, so the
  // compiler cannot fold pow(x, 1.0) to x and libm's pow really runs.
  volatile double runtime_p = 1.0;
  const double p = runtime_p;
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -3 * std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min() / 7,
                             std::numeric_limits<double>::min(),
                             std::ldexp(1.0, -600),
                             1024.0,
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  std::mt19937_64 gen(1234);
  std::uniform_real_distribution<double> value(-50.0, 50.0);
  std::uniform_int_distribution<std::size_t> pick(0, std::size(specials) - 1);
  std::uniform_int_distribution<int> coin(0, 3);
  std::uniform_int_distribution<std::size_t> length(0, 37);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<double> a(length(gen)), b(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = coin(gen) == 0 ? specials[pick(gen)] : value(gen);
      b[i] = coin(gen) == 0 ? specials[pick(gen)] : value(gen);
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) acc += std::pow(std::abs(a[i] - b[i]), p);
    const double want = std::pow(acc, 1.0 / p);
    const double got = minkowski_distance(a, b, 1.0);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
        << "trial " << trial << ": " << got << " vs " << want;
  }
}

TEST(VectorOps, MinkowskiP2IsEuclidean) {
  const std::vector<double> a{0, 0}, b{3, 4};
  EXPECT_DOUBLE_EQ(minkowski_distance(a, b, 2.0), 5.0);
}

TEST(VectorOps, Argmax) {
  const std::vector<double> v{1, 5, 3, 5};
  EXPECT_EQ(argmax(v), 1u);  // first of ties
}

TEST(Sigmoid, SymmetricAndBounded) {
  EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5);
  EXPECT_NEAR(sigmoid(10.0) + sigmoid(-10.0), 1.0, 1e-12);
  EXPECT_GT(sigmoid(1000.0), 0.999);
  EXPECT_LT(sigmoid(-1000.0), 0.001);
}

TEST(Sigmoid, NoOverflowAtExtremes) {
  EXPECT_TRUE(std::isfinite(sigmoid(1e300)));
  EXPECT_TRUE(std::isfinite(sigmoid(-1e300)));
}

TEST(Log1pExp, MatchesReferenceMidRange) {
  EXPECT_NEAR(log1p_exp(0.0), std::log(2.0), 1e-12);
  EXPECT_NEAR(log1p_exp(1.0), std::log1p(std::exp(1.0)), 1e-12);
}

TEST(Log1pExp, AsymptoticBehaviour) {
  EXPECT_DOUBLE_EQ(log1p_exp(100.0), 100.0);
  EXPECT_DOUBLE_EQ(log1p_exp(-100.0), 0.0);
}

TEST(Softmax, SumsToOne) {
  const auto p = softmax(std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-12);
  EXPECT_GT(p[2], p[1]);
  EXPECT_GT(p[1], p[0]);
}

TEST(Softmax, StableForLargeInputs) {
  const auto p = softmax(std::vector<double>{1000.0, 1000.0});
  EXPECT_NEAR(p[0], 0.5, 1e-12);
}

}  // namespace
}  // namespace mlaas
