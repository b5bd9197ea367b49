#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "linalg/vector_ops.h"
#include "ml/bayes/naive_bayes.h"
#include "ml/kernel/rbf_svm.h"
#include "ml/neighbors/knn.h"
#include "ml/neural/mlp.h"
#include "tests/ml/test_helpers.h"
#include "util/rng.h"

namespace mlaas {
namespace {

using testing::circles;
using testing::holdout_accuracy;
using testing::separable;

TEST(NaiveBayes, SeparatesBlobs) {
  GaussianNaiveBayes clf;
  EXPECT_GT(holdout_accuracy(clf, separable()), 0.95);
}

TEST(NaiveBayes, UniformPriorShiftsImbalancedPrediction) {
  // Highly imbalanced data; uniform prior should recall more positives.
  Matrix x(200, 1);
  std::vector<int> y(200, 0);
  Rng rng(3);
  for (std::size_t i = 0; i < 200; ++i) {
    const bool pos = i < 20;
    y[i] = pos ? 1 : 0;
    x(i, 0) = rng.normal(pos ? 1.0 : -1.0, 1.5);
  }
  GaussianNaiveBayes empirical(ParamMap{{"prior", std::string("empirical")}});
  GaussianNaiveBayes uniform(ParamMap{{"prior", std::string("uniform")}});
  empirical.fit(x, y);
  uniform.fit(x, y);
  EXPECT_GE(recall_score(y, uniform.predict(x)), recall_score(y, empirical.predict(x)));
}

TEST(NaiveBayes, HandlesZeroVarianceFeature) {
  Matrix x{{1, 0}, {1, 1}, {1, 0}, {1, 5}};
  GaussianNaiveBayes clf;
  clf.fit(x, {0, 1, 0, 1});
  for (double s : clf.predict_score(x)) EXPECT_FALSE(std::isnan(s));
}

TEST(Knn, LearnsNonLinearBoundary) {
  KNearestNeighbors clf(ParamMap{{"n_neighbors", 5LL}});
  EXPECT_GT(holdout_accuracy(clf, circles()), 0.9);
}

TEST(Knn, KLargerThanTrainSetClamps) {
  Matrix x{{0}, {1}, {10}, {11}};
  KNearestNeighbors clf(ParamMap{{"n_neighbors", 100LL}});
  clf.fit(x, {0, 0, 1, 1});
  // With k = n every query sees the global label mix (tie -> score 0.5).
  const auto scores = clf.predict_score(x);
  for (double s : scores) EXPECT_NEAR(s, 0.5, 1e-9);
}

TEST(Knn, DistanceWeightingFavorsCloserNeighbors) {
  Matrix x{{0.0}, {0.4}, {10.0}};
  KNearestNeighbors clf(ParamMap{{"n_neighbors", 3LL}, {"weights", std::string("distance")}});
  clf.fit(x, {1, 1, 0});
  Matrix q{{0.1}};
  EXPECT_GT(clf.predict_score(q)[0], 0.8);
}

TEST(Knn, ManhattanMetricSupported) {
  KNearestNeighbors clf(ParamMap{{"p", 1LL}});
  EXPECT_GT(holdout_accuracy(clf, circles()), 0.85);
}

TEST(Knn, EuclideanFastPathMatchesBruteForceMinkowski) {
  // The p=2 path computes sqrt(||q||^2 - 2 q.x + ||x||^2) from cached train
  // norms; neighbor sets, tie order and scores must match the direct
  // minkowski_distance scan for both weighting modes.
  const Dataset ds = circles(240, 7);
  const auto split = train_test_split(ds, 0.3, 11);
  for (const char* weights : {"uniform", "distance"}) {
    KNearestNeighbors clf(
        ParamMap{{"n_neighbors", 7LL}, {"weights", std::string(weights)}});
    clf.fit(split.train.x(), split.train.y());
    const auto scores = clf.predict_score(split.test.x());

    const Matrix& tx = split.train.x();
    const auto& ty = split.train.y();
    for (std::size_t q = 0; q < split.test.x().rows(); ++q) {
      std::vector<std::pair<double, std::size_t>> dist(tx.rows());
      for (std::size_t i = 0; i < tx.rows(); ++i) {
        dist[i] = {minkowski_distance(split.test.x().row(q), tx.row(i), 2.0), i};
      }
      std::partial_sort(dist.begin(), dist.begin() + 7, dist.end());
      double pos = 0.0, total = 0.0;
      for (std::size_t j = 0; j < 7; ++j) {
        const double w =
            std::string(weights) == "distance" ? 1.0 / (dist[j].first + 1e-9) : 1.0;
        total += w;
        if (ty[dist[j].second] == 1) pos += w;
      }
      EXPECT_NEAR(scores[q], pos / total, 1e-9)
          << "weights=" << weights << " query " << q;
    }
  }
}

TEST(Knn, FastPathNormsSurviveSerializationRoundTrip) {
  const Dataset ds = circles(120, 5);
  KNearestNeighbors clf(ParamMap{{"n_neighbors", 5LL}});
  clf.fit(ds.x(), ds.y());
  std::stringstream buf;
  clf.save(buf);
  KNearestNeighbors loaded;
  loaded.load(buf);
  const auto a = clf.predict_score(ds.x());
  const auto b = loaded.predict_score(ds.x());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Mlp, LearnsNonLinearBoundary) {
  MultiLayerPerceptron clf(ParamMap{{"hidden", 16LL}, {"max_iter", 120LL}});
  EXPECT_GT(holdout_accuracy(clf, circles()), 0.85);
}

TEST(Mlp, TanhAndSgdVariant) {
  MultiLayerPerceptron clf(ParamMap{{"activation", std::string("tanh")},
                                    {"solver", std::string("sgd")},
                                    {"max_iter", 150LL}});
  EXPECT_GT(holdout_accuracy(clf, separable()), 0.9);
}

TEST(Mlp, TwoHiddenLayers) {
  MultiLayerPerceptron clf(ParamMap{{"layers", 2LL}, {"hidden", 8LL}, {"max_iter", 150LL}});
  EXPECT_GT(holdout_accuracy(clf, circles()), 0.8);
}

TEST(Mlp, UnknownActivationRejected) {
  EXPECT_THROW(MultiLayerPerceptron(ParamMap{{"activation", std::string("softplus")}}),
               std::invalid_argument);
}

TEST(RbfSvm, SolvesCircles) {
  RbfSvm clf;
  EXPECT_GT(holdout_accuracy(clf, circles()), 0.9);
}

TEST(RbfSvm, AlsoHandlesLinearProblem) {
  RbfSvm clf;
  EXPECT_GT(holdout_accuracy(clf, separable()), 0.9);
}

TEST(RbfSvm, GammaOverride) {
  RbfSvm clf(ParamMap{{"gamma", 2.0}});
  EXPECT_GT(holdout_accuracy(clf, circles()), 0.85);
}

TEST(RbfSvm, PrunedSupportSetGivesSameDecisionFunction) {
  // After fit, zero-alpha rows are dropped.  The decision function summed
  // over the (ordered) surviving support vectors must equal predict_score,
  // and on an easy problem some rows should actually have been pruned.
  const Dataset ds = separable(220, 9);
  RbfSvm clf(ParamMap{{"max_iter", 10LL}});
  clf.fit(ds.x(), ds.y());

  std::stringstream buf;
  clf.save(buf);
  RbfSvm loaded;
  loaded.load(buf);
  const auto direct = clf.predict_score(ds.x());
  const auto via_serialized = loaded.predict_score(ds.x());
  ASSERT_EQ(direct.size(), via_serialized.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i], via_serialized[i]) << "row " << i;
  }
  EXPECT_LT(clf.support_count(), ds.n_samples());
  EXPECT_GT(clf.support_count(), 0u);
}

TEST(NonLinearFamily, DeclaredCorrectly) {
  EXPECT_FALSE(KNearestNeighbors().is_linear());
  EXPECT_FALSE(MultiLayerPerceptron().is_linear());
  EXPECT_FALSE(RbfSvm().is_linear());
  EXPECT_TRUE(GaussianNaiveBayes().is_linear());  // Table 5 convention
}

}  // namespace
}  // namespace mlaas
