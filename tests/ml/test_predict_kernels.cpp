// Prediction kernel equivalence: for EVERY registry classifier,
// predict_score / predict must be BIT-identical to the per-row reference
// loops kept in tests/oracle/predict.h, across query block sizes that
// exercise the blocked bodies, the lane remainders, and the single-row path;
// every registry regressor must predict the same bits at every block size.
// Also locks the kNN selection strategies (classifier and regressor) against
// a full-sort oracle and the scratch-buffer reuse fixes (repeat calls,
// serialization round trips).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "linalg/vector_ops.h"
#include "ml/classifier.h"
#include "ml/registry.h"
#include "ml/regression/regressor.h"
#include "ml/serialize.h"
#include "tests/oracle/predict.h"

namespace mlaas {
namespace {

void expect_bits_equal(const std::vector<double>& got,
                       const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " differs at row " << i << ": " << got[i] << " vs " << want[i];
  }
}

Dataset train_data(std::uint64_t seed = 21) {
  MakeClassificationOptions opt;
  opt.n_samples = 400;
  opt.n_features = 12;
  opt.n_informative = 4;
  opt.n_redundant = 2;
  return make_classification(opt, seed);
}

// Query pool, same geometry but disjoint seed so queries are not training
// points; sliced into the block sizes under test.
Matrix query_block(std::size_t rows, std::uint64_t seed = 22) {
  MakeClassificationOptions opt;
  opt.n_samples = 1000;
  opt.n_features = 12;
  opt.n_informative = 4;
  opt.n_redundant = 2;
  static const Dataset pool = make_classification(opt, seed);
  Matrix q(rows, pool.x().cols());
  for (std::size_t r = 0; r < rows; ++r) {
    const auto src = pool.x().row(r % pool.x().rows());
    std::copy(src.begin(), src.end(), q.row(r).begin());
  }
  return q;
}

const std::size_t kBlockSizes[] = {1, 7, 64, 1000};

class PredictKernelEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(PredictKernelEquivalence, ScoresAndLabelsBitIdenticalAcrossBlockSizes) {
  const Dataset ds = train_data();
  auto clf = make_classifier(GetParam(), {}, 77);
  clf->fit(ds.x(), ds.y());
  const oracle::ReferencePredictor reference(*clf);
  for (const std::size_t rows : kBlockSizes) {
    const Matrix q = query_block(rows);
    expect_bits_equal(clf->predict_score(q), reference.predict_score(q),
                      GetParam() + " scores, block=" + std::to_string(rows));
    EXPECT_EQ(clf->predict(q), reference.predict(q))
        << GetParam() << " labels, block=" << rows;
  }
}

TEST_P(PredictKernelEquivalence, RepeatCallsReuseScratchWithoutDrift) {
  // The scratch-buffer reuse fixes (per-call allocations removed from the
  // ensemble score paths) must not let one call's state leak into the next:
  // interleaved different-size queries return the same bits every time.
  const Dataset ds = train_data(31);
  auto clf = make_classifier(GetParam(), {}, 9);
  clf->fit(ds.x(), ds.y());
  const Matrix big = query_block(64);
  const Matrix small = query_block(3);
  const auto big_first = clf->predict_score(big);
  const auto small_first = clf->predict_score(small);
  const auto big_again = clf->predict_score(big);
  const auto small_again = clf->predict_score(small);
  expect_bits_equal(big_again, big_first, GetParam() + " repeated 64-row call");
  expect_bits_equal(small_again, small_first, GetParam() + " repeated 3-row call");
}

TEST_P(PredictKernelEquivalence, SerializationRoundTripKeepsBothKernels) {
  const Dataset ds = train_data(41);
  auto original = make_classifier(GetParam(), {}, 5);
  original->fit(ds.x(), ds.y());
  std::stringstream buffer;
  save_model(buffer, *original);
  const ClassifierPtr restored = load_model(buffer);
  const Matrix q = query_block(65);
  // load() rebuilds the inference layouts (flattened forests, kNN norms);
  // both the restored model and the oracle read from its bytes must score
  // exactly like the original.
  const auto original_scores = original->predict_score(q);
  expect_bits_equal(restored->predict_score(q), original_scores,
                    GetParam() + " restored scores");
  expect_bits_equal(oracle::ReferencePredictor(*restored).predict_score(q), original_scores,
                    GetParam() + " oracle scores of the restored model");
}

INSTANTIATE_TEST_SUITE_P(AllClassifiers, PredictKernelEquivalence,
                         ::testing::ValuesIn(classifier_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

class PredictKernelRegressors : public ::testing::TestWithParam<std::string> {};

TEST_P(PredictKernelRegressors, PredictionsBitIdenticalAcrossBlockSizes) {
  // A row's prediction must not depend on the block it arrives in: every
  // block size gives the bits of scoring each row on its own.  The tree
  // regressors' FlatForest walks are checked against the per-tree oracle
  // walk in test_flat_forest.cpp, knn_regressor's selection below.
  const Dataset ds = train_data(51);
  std::vector<double> targets(ds.n_samples());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    targets[i] = ds.x()(i, 0) * 1.5 + (ds.y()[i] == 1 ? 2.0 : -2.0);
  }
  auto reg = make_regressor(GetParam(), {}, 7);
  reg->fit(ds.x(), targets);
  for (const std::size_t rows : kBlockSizes) {
    const Matrix q = query_block(rows);
    std::vector<double> one_by_one(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      Matrix single(1, q.cols());
      std::copy(q.row(r).begin(), q.row(r).end(), single.row(0).begin());
      one_by_one[r] = reg->predict(single)[0];
    }
    expect_bits_equal(reg->predict(q), one_by_one,
                      GetParam() + " predictions, block=" + std::to_string(rows));
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegressors, PredictKernelRegressors,
                         ::testing::ValuesIn(regressor_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// Oracle for the kNN classifier: the full-sort selection every faster
// strategy (partial_sort, fused bounded insertion, nth_element) must reproduce
// exactly — same distance expression, same (distance, index) total order,
// same sorted-order weighted vote.  p = 2 uses the euclidean norm
// expansion; p = 1 the general Minkowski formula minkowski_distance had
// before its Manhattan branch, pow and all.
std::vector<double> knn_full_sort_scores(const Matrix& train_x,
                                         const std::vector<int>& train_y,
                                         const Matrix& queries, double p, std::size_t k,
                                         bool distance_weighted) {
  const std::size_t n = train_x.rows();
  std::vector<double> sq_norms(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = train_x.row(i);
    sq_norms[i] = dot(row, row);
  }
  std::vector<double> out(queries.rows());
  std::vector<std::pair<double, std::size_t>> dist(n);
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    const auto q = queries.row(qi);
    const double q_sq = dot(q, q);
    for (std::size_t i = 0; i < n; ++i) {
      if (p == 2.0) {
        const double dd = q_sq - 2.0 * dot(q, train_x.row(i)) + sq_norms[i];
        dist[i] = {std::sqrt(std::max(0.0, dd)), i};
        continue;
      }
      const auto row = train_x.row(i);
      double acc = 0.0;
      for (std::size_t c = 0; c < q.size(); ++c) acc += std::pow(std::abs(q[c] - row[c]), p);
      dist[i] = {std::pow(acc, 1.0 / p), i};
    }
    std::sort(dist.begin(), dist.end());
    double pos = 0.0, total = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      const double w = distance_weighted ? 1.0 / (dist[j].first + 1e-9) : 1.0;
      total += w;
      if (train_y[dist[j].second] == 1) pos += w;
    }
    out[qi] = total > 0 ? pos / total : 0.5;
  }
  return out;
}

class PredictKernelKnnSelection
    : public ::testing::TestWithParam<std::tuple<double, int, const char*>> {};

TEST_P(PredictKernelKnnSelection, MatchesFullSortOracleOnBothKernels) {
  // k = 5 on 400 train rows drives the small-k branch (5 * 16 < 400: fused
  // bounded insertion for p = 2, partial_sort for p = 1); k = 40 drives the
  // nth_element branch (40 * 16 >= 400).  Both must agree with the
  // full-sort oracle bit for bit, under uniform and distance weights, and
  // so must the per-row reference loop.
  const double p = std::get<0>(GetParam());
  const int k = std::get<1>(GetParam());
  const std::string weights = std::get<2>(GetParam());
  const Dataset ds = train_data(61);
  ParamMap params;
  params.set("n_neighbors", static_cast<long long>(k));
  params.set("weights", weights);
  params.set("p", p);
  auto clf = make_classifier("knn", params, 3);
  clf->fit(ds.x(), ds.y());
  const Matrix q = query_block(50);
  const std::vector<double> full_sort = knn_full_sort_scores(
      ds.x(), ds.y(), q, p, static_cast<std::size_t>(k), weights == "distance");
  const std::string label =
      "knn p=" + std::to_string(p) + " k=" + std::to_string(k) + " weights=" + weights;
  expect_bits_equal(clf->predict_score(q), full_sort, label);
  expect_bits_equal(oracle::ReferencePredictor(*clf).predict_score(q), full_sort,
                    label + " (reference loop)");
}

std::string knn_selection_name(
    const ::testing::TestParamInfo<std::tuple<double, int, const char*>>& info) {
  return std::string("k") + std::to_string(std::get<1>(info.param)) + "_" +
         std::get<2>(info.param);
}

INSTANTIATE_TEST_SUITE_P(
    SelectionStrategies, PredictKernelKnnSelection,
    ::testing::Combine(::testing::Values(2.0), ::testing::Values(5, 40),
                       ::testing::Values("uniform", "distance")),
    knn_selection_name);

INSTANTIATE_TEST_SUITE_P(
    Manhattan, PredictKernelKnnSelection,
    ::testing::Combine(::testing::Values(1.0), ::testing::Values(5, 40),
                       ::testing::Values("uniform", "distance")),
    knn_selection_name);

// Oracle for knn_regressor: every training row's distance, a full sort of
// the (distance, index) pairs, then the (weighted) mean of the first k
// targets in sorted order.
std::vector<double> knn_regressor_full_sort(const Matrix& train_x,
                                            const std::vector<double>& train_y,
                                            const Matrix& queries, double p, std::size_t k,
                                            bool distance_weighted) {
  std::vector<double> out(queries.rows());
  std::vector<std::pair<double, std::size_t>> dist(train_x.rows());
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    for (std::size_t i = 0; i < train_x.rows(); ++i) {
      dist[i] = {minkowski_distance(queries.row(qi), train_x.row(i), p), i};
    }
    std::sort(dist.begin(), dist.end());
    double sum = 0.0, total_weight = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      const double w = distance_weighted ? 1.0 / (dist[j].first + 1e-9) : 1.0;
      sum += w * train_y[dist[j].second];
      total_weight += w;
    }
    out[qi] = total_weight > 0 ? sum / total_weight : 0.0;
  }
  return out;
}

class KnnRegressorSelection
    : public ::testing::TestWithParam<std::tuple<double, int, const char*>> {};

TEST_P(KnnRegressorSelection, MatchesFullSortOracleOnTrainingData) {
  // Scored on its own 400 training rows, so every query has a zero-distance
  // neighbour.  k = 5 takes partial_sort (5 * 16 < 400), k = 40 takes
  // nth_element plus a sort of the front (40 * 16 >= 400).
  const double p = std::get<0>(GetParam());
  const int k = std::get<1>(GetParam());
  const std::string weights = std::get<2>(GetParam());
  const Dataset ds = train_data(71);
  std::vector<double> targets(ds.n_samples());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    targets[i] = ds.x()(i, 1) - 0.5 * ds.x()(i, 2) + (ds.y()[i] == 1 ? 1.0 : -1.0);
  }
  ParamMap params;
  params.set("n_neighbors", static_cast<long long>(k));
  params.set("weights", weights);
  params.set("p", p);
  auto reg = make_regressor("knn_regressor", params, 3);
  reg->fit(ds.x(), targets);
  expect_bits_equal(reg->predict(ds.x()),
                    knn_regressor_full_sort(ds.x(), targets, ds.x(), p,
                                            static_cast<std::size_t>(k),
                                            weights == "distance"),
                    "knn_regressor p=" + std::to_string(p) + " k=" + std::to_string(k) +
                        " weights=" + weights);
}

INSTANTIATE_TEST_SUITE_P(
    Euclidean, KnnRegressorSelection,
    ::testing::Combine(::testing::Values(2.0), ::testing::Values(5, 40),
                       ::testing::Values("uniform", "distance")),
    knn_selection_name);

INSTANTIATE_TEST_SUITE_P(
    Manhattan, KnnRegressorSelection,
    ::testing::Combine(::testing::Values(1.0), ::testing::Values(5, 40),
                       ::testing::Values("uniform", "distance")),
    knn_selection_name);

}  // namespace
}  // namespace mlaas
