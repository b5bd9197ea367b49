#include "ml/feature/filters.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "data/generators.h"
#include "tests/oracle/kendall.h"
#include "util/rng.h"

namespace mlaas {
namespace {

/// 6 features: 0 and 3 informative, the rest pure noise.
Dataset informative_vs_noise(std::uint64_t seed = 5) {
  Rng rng(seed);
  Matrix x(400, 6);
  std::vector<int> y(400);
  for (std::size_t i = 0; i < 400; ++i) {
    const int label = static_cast<int>(i % 2);
    y[i] = label;
    for (std::size_t c = 0; c < 6; ++c) x(i, c) = rng.normal();
    x(i, 0) += label * 3.0;
    x(i, 3) += label * 3.0;
  }
  return Dataset(std::move(x), std::move(y));
}

class FilterScore : public ::testing::TestWithParam<std::string> {};

TEST_P(FilterScore, RanksInformativeAboveNoise) {
  const Dataset ds = informative_vs_noise();
  const auto scores = score_features(ds.x(), ds.y(), feature_score_fn(GetParam()));
  ASSERT_EQ(scores.size(), 6u);
  if (GetParam() == "count") return;  // variance proxy is label-blind
  for (std::size_t c : {1u, 2u, 4u, 5u}) {
    EXPECT_GT(scores[0], scores[c]) << GetParam();
    EXPECT_GT(scores[3], scores[c]) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(AllScores, FilterScore,
                         ::testing::Values("pearson", "spearman", "kendall", "mutual_info",
                                           "chi2", "fisher", "count", "f_classif"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(FeatureScoreFn, UnknownThrows) {
  EXPECT_THROW(feature_score_fn("bogus"), std::invalid_argument);
}

TEST(SelectKBest, KeepsInformativeColumns) {
  const Dataset ds = informative_vs_noise();
  SelectKBest sel("fisher", 2);
  sel.fit(ds.x(), ds.y());
  EXPECT_EQ(sel.selected(), (std::vector<std::size_t>{0, 3}));
  const Matrix t = sel.transform(ds.x());
  EXPECT_EQ(t.cols(), 2u);
}

TEST(SelectKBest, DefaultKeepsHalf) {
  const Dataset ds = informative_vs_noise();
  SelectKBest sel("fisher");
  sel.fit(ds.x(), ds.y());
  EXPECT_EQ(sel.selected().size(), 3u);
}

TEST(SelectKBest, TransformBeforeFitThrows) {
  SelectKBest sel("fisher", 1);
  Matrix x(2, 2);
  EXPECT_THROW(sel.transform(x), std::logic_error);
}

TEST(SelectKBest, KClampedToFeatureCount) {
  const Dataset ds = informative_vs_noise();
  SelectKBest sel("fisher", 99);
  sel.fit(ds.x(), ds.y());
  EXPECT_EQ(sel.selected().size(), 6u);
}

TEST(SelectKBest, KendallOnNanColumnsMatchesOracleScoring) {
  // With imputation off the corpus keeps missing values, so the kendall
  // filter sees NaN (and the pair-walk fallback must score it exactly as
  // before).  Columns 0 and 3 are informative; 1, 3 and 4 carry NaN, 4 an
  // Inf too.
  Dataset ds = informative_vs_noise(11);
  Matrix& x = ds.x();
  Rng rng(3);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    if (rng.chance(0.1)) x(i, 1) = std::numeric_limits<double>::quiet_NaN();
    if (rng.chance(0.02)) x(i, 3) = std::numeric_limits<double>::quiet_NaN();
    if (rng.chance(0.05)) x(i, 4) = std::numeric_limits<double>::quiet_NaN();
  }
  x(7, 4) = std::numeric_limits<double>::infinity();

  const std::vector<double> labels(ds.y().begin(), ds.y().end());
  std::vector<double> oracle_scores(x.cols());
  for (std::size_t c = 0; c < x.cols(); ++c) {
    const double s = std::abs(oracle::reference_kendall(x.col(c), labels));
    oracle_scores[c] = std::isfinite(s) ? s : 0.0;
  }
  const auto scores = score_features(x, ds.y(), feature_score_fn("kendall"));
  ASSERT_EQ(scores.size(), oracle_scores.size());
  EXPECT_EQ(std::memcmp(scores.data(), oracle_scores.data(), scores.size() * sizeof(double)),
            0);

  for (const std::size_t k : {1u, 2u, 3u, 5u}) {
    std::vector<std::size_t> order(x.cols());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return oracle_scores[a] > oracle_scores[b];
    });
    std::vector<std::size_t> expected(order.begin(),
                                      order.begin() + static_cast<std::ptrdiff_t>(k));
    std::sort(expected.begin(), expected.end());
    SelectKBest sel("kendall", k);
    sel.fit(x, ds.y());
    EXPECT_EQ(sel.selected(), expected) << "k=" << k;
  }
}

TEST(FisherLdaExtractor, ProjectsToOneDiscriminativeFeature) {
  const Dataset ds = informative_vs_noise();
  FisherLdaExtractor lda;
  lda.fit(ds.x(), ds.y());
  const Matrix t = lda.transform(ds.x());
  ASSERT_EQ(t.cols(), 1u);
  // Projected means must separate the classes.
  double m0 = 0, m1 = 0;
  std::size_t n0 = 0, n1 = 0;
  for (std::size_t i = 0; i < ds.n_samples(); ++i) {
    if (ds.y()[i] == 1) {
      m1 += t(i, 0);
      ++n1;
    } else {
      m0 += t(i, 0);
      ++n0;
    }
  }
  EXPECT_GT(std::abs(m1 / static_cast<double>(n1) - m0 / static_cast<double>(n0)), 1.0);
}

TEST(MakeFeatureStep, DispatchesAllKinds) {
  EXPECT_EQ(make_feature_step("none"), nullptr);
  EXPECT_EQ(make_feature_step(""), nullptr);
  EXPECT_NE(make_feature_step("filter_pearson"), nullptr);
  EXPECT_NE(make_feature_step("fisher_lda"), nullptr);
  EXPECT_NE(make_feature_step("standard_scaler"), nullptr);
  EXPECT_THROW(make_feature_step("filter_bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace mlaas
