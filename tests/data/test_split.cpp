#include "data/split.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "data/generators.h"

namespace mlaas {
namespace {

Dataset balanced(std::size_t n) {
  Matrix x(n, 1);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = static_cast<int>(i % 2);
  }
  return Dataset(std::move(x), std::move(y));
}

TEST(Split, SeventyThirtyProportion) {
  const auto split = train_test_split(balanced(100), 0.3, 1);
  EXPECT_EQ(split.train.n_samples(), 70u);
  EXPECT_EQ(split.test.n_samples(), 30u);
}

TEST(Split, PartitionIsDisjointAndComplete) {
  const auto split = train_test_split(balanced(50), 0.3, 2);
  std::set<double> seen;
  for (std::size_t i = 0; i < split.train.n_samples(); ++i) {
    seen.insert(split.train.x()(i, 0));
  }
  for (std::size_t i = 0; i < split.test.n_samples(); ++i) {
    EXPECT_TRUE(seen.insert(split.test.x()(i, 0)).second);  // no overlap
  }
  EXPECT_EQ(seen.size(), 50u);
}

TEST(Split, StratificationPreservesClassRatio) {
  const auto split = train_test_split(balanced(200), 0.3, 3, /*stratified=*/true);
  EXPECT_NEAR(split.train.positive_fraction(), 0.5, 0.02);
  EXPECT_NEAR(split.test.positive_fraction(), 0.5, 0.02);
}

TEST(Split, MinorityClassPresentOnBothSides) {
  // 90/10 imbalance: both sides must still see the minority class.
  Matrix x(40, 1);
  std::vector<int> y(40, 0);
  for (int i = 0; i < 4; ++i) y[static_cast<std::size_t>(i)] = 1;
  const Dataset ds(std::move(x), std::move(y));
  const auto split = train_test_split(ds, 0.3, 4);
  EXPECT_GT(split.train.positive_fraction(), 0.0);
  EXPECT_GT(split.test.positive_fraction(), 0.0);
}

TEST(Split, DeterministicForSeed) {
  const auto a = train_test_split(balanced(60), 0.3, 7);
  const auto b = train_test_split(balanced(60), 0.3, 7);
  EXPECT_EQ(a.train.x().data().size(), b.train.x().data().size());
  for (std::size_t i = 0; i < a.train.n_samples(); ++i) {
    EXPECT_DOUBLE_EQ(a.train.x()(i, 0), b.train.x()(i, 0));
  }
}

TEST(Split, DifferentSeedsDiffer) {
  const auto a = train_test_split(balanced(60), 0.3, 7);
  const auto b = train_test_split(balanced(60), 0.3, 8);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.train.n_samples(); ++i) {
    any_diff = any_diff || a.train.x()(i, 0) != b.train.x()(i, 0);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Split, RejectsBadFraction) {
  EXPECT_THROW(train_test_split(balanced(10), 0.0, 1), std::invalid_argument);
  EXPECT_THROW(train_test_split(balanced(10), 1.0, 1), std::invalid_argument);
  EXPECT_THROW(train_test_split(balanced(10), std::nan(""), 1), std::invalid_argument);
}

TEST(KFold, AssignsAllFolds) {
  std::vector<int> y(50);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 2);
  const auto folds = kfold_assignment(y, 5, 1);
  std::set<int> distinct(folds.begin(), folds.end());
  EXPECT_EQ(distinct.size(), 5u);
  for (int f : folds) {
    EXPECT_GE(f, 0);
    EXPECT_LT(f, 5);
  }
}

TEST(KFold, StratifiedPerFold) {
  std::vector<int> y(100);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 2);
  const auto folds = kfold_assignment(y, 5, 2);
  for (int f = 0; f < 5; ++f) {
    int pos = 0, total = 0;
    for (std::size_t i = 0; i < y.size(); ++i) {
      if (folds[i] == f) {
        ++total;
        pos += y[i];
      }
    }
    EXPECT_EQ(total, 20);
    EXPECT_EQ(pos, 10);
  }
}

TEST(KFold, RejectsKBelowTwo) {
  EXPECT_THROW(kfold_assignment({0, 1}, 1, 1), std::invalid_argument);
}

}  // namespace
}  // namespace mlaas
