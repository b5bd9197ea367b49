#include "linalg/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "tests/oracle/kendall.h"
#include "util/rng.h"

namespace mlaas {
namespace {

TEST(Stats, MeanVarianceStddev) {
  const std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_DOUBLE_EQ(variance(v), 4.0);
  EXPECT_DOUBLE_EQ(stddev(v), 2.0);
}

TEST(Stats, EmptyInputsAreZero) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{}), 0.0);
}

TEST(Stats, Covariance) {
  const std::vector<double> a{1, 2, 3}, b{2, 4, 6};
  EXPECT_NEAR(covariance(a, b), variance(a) * 2.0, 1e-12);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4, 1, 2, 3}), 2.5);
}

TEST(Stats, QuantileEndpoints) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.5);
}

TEST(Stats, QuantileRejectsBadInput) {
  EXPECT_THROW(quantile(std::vector<double>{}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile(std::vector<double>{1.0}, 1.5), std::invalid_argument);
}

/// The pre-nth_element implementation, kept verbatim as the reference: the
/// selection-based quantile must reproduce the full-sort answer bit for bit
/// (same order statistics, same interpolation expression).
double quantile_by_full_sort(std::vector<double> s, double q) {
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return s[lo] * (1.0 - frac) + s[hi] * frac;
}

TEST(Stats, QuantileMatchesFullSortReferenceExactly) {
  Rng rng(17);
  for (const std::size_t n : {1u, 2u, 3u, 7u, 64u, 1001u}) {
    std::vector<double> v(n);
    for (auto& x : v) x = rng.normal(0.0, 100.0);
    for (const double q :
         {0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0}) {
      // Exact equality, not EXPECT_NEAR: the interpolation arithmetic is
      // unchanged, only the partial ordering algorithm differs.
      EXPECT_EQ(quantile(v, q), quantile_by_full_sort(v, q))
          << "n=" << n << " q=" << q;
    }
  }
}

TEST(Stats, QuantileExactOnDuplicateHeavyInput) {
  // Ties exercise nth_element's partition boundaries hardest.
  Rng rng(23);
  std::vector<double> v(500);
  for (auto& x : v) x = static_cast<double>(rng.index(5));
  for (const double q : {0.0, 0.1, 0.5, 0.77, 1.0}) {
    EXPECT_EQ(quantile(v, q), quantile_by_full_sort(v, q)) << "q=" << q;
  }
}

TEST(Stats, QuantileRejectsNaN) {
  // The old full-sort silently produced an order-dependent garbage answer
  // (NaN breaks strict weak ordering); now it must refuse deterministically.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(quantile(std::vector<double>{1.0, nan, 3.0}, 0.5),
               std::invalid_argument);
  EXPECT_THROW(quantile(std::vector<double>{nan}, 0.0), std::invalid_argument);
  // Infinities are ordered fine and stay accepted.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(quantile(std::vector<double>{1.0, inf, 3.0}, 0.0), 1.0);
}

TEST(Stats, FractionalRanksWithTies) {
  const auto r = fractional_ranks(std::vector<double>{10, 20, 20, 30});
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> b{2, 4, 6, 8};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
  std::vector<double> neg{8, 6, 4, 2};
  EXPECT_NEAR(pearson(a, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantIsZero) {
  const std::vector<double> a{1, 1, 1}, b{1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson(a, b), 0.0);
}

TEST(Stats, SpearmanMonotoneNonlinear) {
  const std::vector<double> a{1, 2, 3, 4, 5};
  const std::vector<double> b{1, 8, 27, 64, 125};  // monotone but non-linear
  EXPECT_NEAR(spearman(a, b), 1.0, 1e-12);
}

TEST(Stats, KendallPerfectAgreement) {
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> b{10, 20, 30, 40};
  EXPECT_NEAR(kendall(a, b), 1.0, 1e-12);
}

TEST(Stats, KendallPerfectDisagreement) {
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> b{4, 3, 2, 1};
  EXPECT_NEAR(kendall(a, b), -1.0, 1e-12);
}

TEST(Stats, KendallIndependentNearZero) {
  Rng rng(5);
  std::vector<double> a(200), b(200);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.normal();
    b[i] = rng.normal();
  }
  EXPECT_NEAR(kendall(a, b), 0.0, 0.12);
}

// One column of a Kendall equivalence input: `kind` picks the value
// family, then specials are sprinkled in at random positions.
std::vector<double> kendall_fuzz_column(Rng& rng, std::size_t n, std::size_t kind,
                                        bool with_non_finite) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<double> v(n);
  for (double& x : v) {
    switch (kind) {
      case 0: x = rng.normal(); break;                                   // continuous
      case 1: x = static_cast<double>(rng.index(2)); break;              // binary labels
      case 2: x = static_cast<double>(rng.index(4)); break;              // heavy ties
      case 3: x = 7.5; break;                                            // all tied
      case 4: x = rng.chance(0.5) ? -0.0 : 0.0; break;                   // signed zeros
      case 5: x = (rng.chance(0.5) ? -1e300 : 1e300) * (1.0 + rng.index(3)); break;  // overflow
      case 6: x = tiny * static_cast<double>(rng.integer(-3, 3)); break;  // subnormals
      default:  // a mix of every family above
        x = rng.chance(0.25) ? rng.normal()
            : rng.chance(0.3) ? static_cast<double>(rng.index(3))
            : rng.chance(0.3) ? (rng.chance(0.5) ? -0.0 : 0.0)
            : rng.chance(0.5) ? (rng.chance(0.5) ? -1.7e308 : 1.7e308)
                              : tiny * static_cast<double>(rng.integer(-2, 2));
    }
  }
  if (with_non_finite && n > 0) {
    const std::size_t specials = 1 + rng.index(std::max<std::size_t>(1, n / 4));
    for (std::size_t s = 0; s < specials; ++s) {
      const std::size_t which = rng.index(3);
      v[rng.index(n)] = which == 0   ? kInf
                        : which == 1 ? -kInf
                                     : std::numeric_limits<double>::quiet_NaN();
    }
  }
  return v;
}

TEST(Stats, KendallBitIdenticalToPairWalkOracle) {
  // The sort-and-merge counts must reproduce the O(n^2) pair walk's score
  // bit for bit: ties, signed zeros, differences that overflow to +-Inf,
  // subnormals, constant columns (zero denominator), and — through the
  // fallback — NaN and +-Inf.
  Rng rng(20240611);
  std::size_t non_finite_inputs = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t n = rng.chance(0.03) ? 300 + rng.index(401) : rng.index(80);
    const bool non_finite = rng.chance(0.2);
    const std::size_t kind_a = rng.index(8);
    const std::size_t kind_b = rng.chance(0.5) ? 1 : rng.index(8);
    const bool special_a = non_finite && rng.chance(0.7);
    const bool special_b = non_finite && (!special_a || rng.chance(0.3));
    const auto a = kendall_fuzz_column(rng, n, kind_a, special_a);
    const auto b = kendall_fuzz_column(rng, n, kind_b, special_b);
    non_finite_inputs += n > 0 && non_finite ? 1 : 0;
    const double fast = kendall(a, b);
    const double oracle = oracle::reference_kendall(a, b);
    ASSERT_EQ(std::memcmp(&fast, &oracle, sizeof(double)), 0)
        << "trial " << trial << " n=" << n << " kinds " << kind_a << "/" << kind_b
        << ": " << fast << " vs oracle " << oracle;
  }
  EXPECT_GT(non_finite_inputs, 3000u);
}

TEST(Stats, FisherScoreSeparatesClasses) {
  std::vector<double> feature;
  std::vector<int> labels;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const int y = i % 2;
    feature.push_back(rng.normal(y == 1 ? 5.0 : 0.0, 1.0));
    labels.push_back(y);
  }
  std::vector<double> noise(200);
  for (auto& v : noise) v = rng.normal();
  EXPECT_GT(fisher_score(feature, labels), 5.0);
  EXPECT_LT(fisher_score(noise, labels), 0.5);
}

TEST(Stats, MutualInformationOrdersInformativeness) {
  Rng rng(11);
  std::vector<double> informative, noise;
  std::vector<int> labels;
  for (int i = 0; i < 500; ++i) {
    const int y = i % 2;
    labels.push_back(y);
    informative.push_back(rng.normal(y == 1 ? 2.0 : -2.0, 1.0));
    noise.push_back(rng.normal());
  }
  EXPECT_GT(mutual_information(informative, labels), mutual_information(noise, labels) + 0.2);
}

TEST(Stats, MutualInformationNonNegative) {
  Rng rng(13);
  std::vector<double> f(100);
  std::vector<int> y(100);
  for (int i = 0; i < 100; ++i) {
    f[static_cast<std::size_t>(i)] = rng.normal();
    y[static_cast<std::size_t>(i)] = rng.chance(0.5) ? 1 : 0;
  }
  EXPECT_GE(mutual_information(f, y), 0.0);
}

TEST(Stats, AnovaFSeparatesClasses) {
  std::vector<double> feature{0, 0.1, -0.1, 5.0, 5.1, 4.9};
  std::vector<int> labels{0, 0, 0, 1, 1, 1};
  EXPECT_GT(anova_f(feature, labels), 100.0);
}

TEST(Stats, ChiSquaredZeroForUninformative) {
  // Feature mass identical across classes -> statistic ~0.
  std::vector<double> f{1, 1, 1, 1};
  std::vector<int> y{0, 1, 0, 1};
  EXPECT_NEAR(chi_squared(f, y), 0.0, 1e-9);
}

TEST(Stats, ChiSquaredPositiveForSkewedMass) {
  std::vector<double> f{10, 10, 0, 0};
  std::vector<int> y{1, 1, 0, 0};
  EXPECT_GT(chi_squared(f, y), 1.0);
}

}  // namespace
}  // namespace mlaas
