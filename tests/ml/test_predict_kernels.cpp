// Flat-vs-reference prediction kernel equivalence: for EVERY registry
// classifier and regressor, predict_score / predict / predict must be
// BIT-identical under PredictKernel::kFlat and PredictKernel::kReference,
// across query block sizes that exercise the blocked bodies, the lane
// remainders, and the single-row path.  Also locks the kNN selection
// strategies against a full-sort oracle and the scratch-buffer reuse fixes
// (repeat calls, serialization round trips).
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

namespace mlaas {
namespace {

// RAII toggle so a failing assertion cannot leak kReference into other
// tests in the same process.
class KernelGuard {
 public:
  explicit KernelGuard(PredictKernel k) : prev_(active_predict_kernel()) {
    set_active_predict_kernel(k);
  }
  ~KernelGuard() { set_active_predict_kernel(prev_); }

 private:
  PredictKernel prev_;
};

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
  for (const std::size_t rows : kBlockSizes) {
    const Matrix q = query_block(rows);
    std::vector<double> reference_scores;
    std::vector<int> reference_labels;
    {
      KernelGuard guard(PredictKernel::kReference);
      reference_scores = clf->predict_score(q);
      reference_labels = clf->predict(q);
    }
    std::vector<double> flat_scores;
    std::vector<int> flat_labels;
    {
      KernelGuard guard(PredictKernel::kFlat);
      flat_scores = clf->predict_score(q);
      flat_labels = clf->predict(q);
    }
    expect_bits_equal(flat_scores, reference_scores,
                      GetParam() + " scores, block=" + std::to_string(rows));
    EXPECT_EQ(flat_labels, reference_labels)
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
  KernelGuard guard(PredictKernel::kFlat);
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
  for (const PredictKernel kernel : {PredictKernel::kFlat, PredictKernel::kReference}) {
    KernelGuard guard(kernel);
    expect_bits_equal(restored->predict_score(q), original->predict_score(q),
                      GetParam() + " restored scores");
  }
}

INSTANTIATE_TEST_SUITE_P(AllClassifiers, PredictKernelEquivalence,
                         ::testing::ValuesIn(classifier_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

class PredictKernelRegressors : public ::testing::TestWithParam<std::string> {};

TEST_P(PredictKernelRegressors, PredictionsBitIdenticalAcrossBlockSizes) {
  const Dataset ds = train_data(51);
  std::vector<double> targets(ds.n_samples());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    targets[i] = ds.x()(i, 0) * 1.5 + (ds.y()[i] == 1 ? 2.0 : -2.0);
  }
  auto reg = make_regressor(GetParam(), {}, 7);
  reg->fit(ds.x(), targets);
  for (const std::size_t rows : kBlockSizes) {
    const Matrix q = query_block(rows);
    std::vector<double> reference;
    {
      KernelGuard guard(PredictKernel::kReference);
      reference = reg->predict(q);
    }
    std::vector<double> flat;
    {
      KernelGuard guard(PredictKernel::kFlat);
      flat = reg->predict(q);
    }
    expect_bits_equal(flat, reference,
                      GetParam() + " predictions, block=" + std::to_string(rows));
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegressors, PredictKernelRegressors,
                         ::testing::ValuesIn(regressor_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(PredictKernelToggle, RoundTripsAndDefaultsToFlat) {
  const PredictKernel initial = active_predict_kernel();
  EXPECT_EQ(initial, PredictKernel::kFlat);
  set_active_predict_kernel(PredictKernel::kReference);
  EXPECT_EQ(active_predict_kernel(), PredictKernel::kReference);
  set_active_predict_kernel(PredictKernel::kFlat);
  EXPECT_EQ(active_predict_kernel(), PredictKernel::kFlat);
}

// Oracle for the kNN paths: the full-sort selection every faster strategy
// (partial_sort, fused bounded insertion, nth_element) must reproduce
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
  // full-sort oracle bit for bit, under uniform and distance weights.
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
  const std::vector<double> oracle = knn_full_sort_scores(
      ds.x(), ds.y(), q, p, static_cast<std::size_t>(k), weights == "distance");
  for (const PredictKernel kernel : {PredictKernel::kFlat, PredictKernel::kReference}) {
    KernelGuard guard(kernel);
    expect_bits_equal(clf->predict_score(q), oracle,
                      "knn p=" + std::to_string(p) + " k=" + std::to_string(k) +
                          " weights=" + weights +
                          (kernel == PredictKernel::kFlat ? " (flat)" : " (reference)"));
  }
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

}  // namespace
}  // namespace mlaas
