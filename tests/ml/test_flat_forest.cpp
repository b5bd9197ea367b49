// FlatForest against the per-tree walks it replaced: predict_into must
// return TreeModel::predict's bits, and predict_accumulate the bits of the
// per-tree oracle walk (tests/oracle/predict.h), feature maps included, at
// every query block size.  Every tree-family scorer (the five tree
// classifiers and the three tree regressors) predicts through one of these
// two calls, the averaging forests through predict_mean over
// predict_accumulate.
#include "ml/tree/flat_forest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "data/generators.h"
#include "ml/tree/tree_model.h"
#include "tests/oracle/predict.h"
#include "util/rng.h"

namespace mlaas {
namespace {

constexpr std::size_t kFeatures = 10;
const std::size_t kBlockSizes[] = {1, 7, 64, 1000};

struct MappedTree {
  TreeModel tree;
  std::vector<std::size_t> features;  // empty: the tree reads every column
  std::string label;
};

Dataset classification(std::size_t n, std::uint64_t seed) {
  MakeClassificationOptions opt;
  opt.n_samples = n;
  opt.n_features = kFeatures;
  opt.n_informative = 5;
  opt.n_redundant = 2;
  return make_classification(opt, seed);
}

// Seeded trees of every leaf regime: Gini and entropy (fractions), MSE
// (real-valued means) and MSE with hessians (Newton values), a single leaf,
// an empty tree and a hand-built split with a -0.0 leaf.  Each comes twice:
// fitted on all columns, and on a column subset that the flat layout must
// map back onto the full matrix.
std::vector<MappedTree> seeded_trees() {
  const Dataset ds = classification(300, 5);
  const std::size_t n = ds.n_samples();
  Rng rng(17);
  std::vector<double> labels(n), real(n), hessians(n), constant(n, 0.75);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = ds.y()[i] == 1 ? 1.0 : 0.0;
    real[i] = 1.7 * ds.x()(i, 0) - ds.x()(i, 3) + 0.3 * rng.normal();
    hessians[i] = rng.uniform(0.05, 1.0);
  }
  TreeOptions gini;
  gini.max_features = 3;
  gini.seed = 11;
  TreeOptions entropy;
  entropy.criterion = SplitCriterion::kEntropy;
  entropy.random_splits = 4;
  entropy.max_depth = 9;
  entropy.seed = 12;
  TreeOptions mse;
  mse.criterion = SplitCriterion::kMse;
  mse.min_samples_leaf = 3;
  mse.seed = 13;
  TreeOptions newton = mse;
  newton.max_nodes = 31;
  newton.seed = 14;

  const std::vector<std::size_t> subset{1, 4, 6, 9};
  std::vector<MappedTree> trees;
  for (const bool mapped : {false, true}) {
    const Matrix x = mapped ? ds.x().select_cols(subset) : ds.x();
    const std::vector<std::size_t> features = mapped ? subset : std::vector<std::size_t>{};
    const std::string suffix = mapped ? " (mapped)" : "";
    const auto fitted = [&](const std::string& label, std::span<const double> targets,
                            std::span<const double> hess, const TreeOptions& opt) {
      MappedTree t{TreeModel(), features, label + suffix};
      t.tree.fit(x, targets, hess, opt);
      return t;
    };
    trees.push_back(fitted("gini", labels, {}, gini));
    trees.push_back(fitted("entropy", labels, {}, entropy));
    trees.push_back(fitted("mse", real, {}, mse));
    trees.push_back(fitted("mse_hessians", real, hessians, newton));
    trees.push_back(fitted("single_leaf", constant, {}, gini));
    trees.push_back({TreeModel(), features, "empty" + suffix});
    MappedTree signed_zero{TreeModel(), features, "negative_zero_leaf" + suffix};
    signed_zero.tree.set_nodes({{2, 0.0, 1, 2, 0.5, 300},
                                {-1, 0.0, -1, -1, -0.0, 150},
                                {-1, 0.0, -1, -1, 0.25, 150}});
    trees.push_back(std::move(signed_zero));
  }
  for (const MappedTree& t : trees) {
    if (t.label.starts_with("gini") || t.label.starts_with("mse")) {
      EXPECT_GT(t.tree.depth(), 2u) << t.label;
    }
  }
  return trees;
}

// Query pool from a disjoint seed; every 13th row carries a NaN (which
// goes right at every split) in a rotating column.
Matrix query_block(std::size_t rows) {
  static const Dataset pool = classification(1000, 6);
  Matrix q(rows, kFeatures);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto src = pool.x().row(r);
    std::copy(src.begin(), src.end(), q.row(r).begin());
    if (r % 13 == 5) q(r, r % kFeatures) = std::numeric_limits<double>::quiet_NaN();
  }
  return q;
}

void expect_bits_equal(const std::vector<double>& got, const std::vector<double>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(want[i]))
        << what << " differs at row " << i << ": " << got[i] << " vs " << want[i];
  }
}

TEST(FlatForest, PredictIntoMatchesTreeWalkAcrossBlockSizes) {
  for (const MappedTree& t : seeded_trees()) {
    FlatForest flat;
    flat.add_tree(t.tree, t.features);
    for (const std::size_t rows : kBlockSizes) {
      const Matrix q = query_block(rows);
      // A mapped tree walks the materialized column subset.
      const std::vector<double> want =
          t.tree.predict(t.features.empty() ? q : q.select_cols(t.features));
      std::vector<double> got(rows, 1234.5);
      flat.predict_into(q, got);
      expect_bits_equal(got, want, t.label + ", block=" + std::to_string(rows));
    }
  }
}

TEST(FlatForest, PredictAccumulateMatchesPerTreeWalkAcrossBlockSizes) {
  const std::vector<MappedTree> trees = seeded_trees();
  FlatForest flat;
  for (const MappedTree& t : trees) flat.add_tree(t.tree, t.features);
  ASSERT_EQ(flat.tree_count(), trees.size());
  for (const double scale : {1.0, 0.37}) {
    for (const std::size_t rows : kBlockSizes) {
      const Matrix q = query_block(rows);
      std::vector<double> start(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        start[r] = std::ldexp(static_cast<double>(r), -3) - 1.0;
      }
      std::vector<double> want = start;
      for (const MappedTree& t : trees) {
        oracle::reference_tree_accumulate(t.tree, q, scale, want, t.features);
      }
      std::vector<double> got = start;
      flat.predict_accumulate(q, scale, got);
      expect_bits_equal(got, want,
                        "forest, scale=" + std::to_string(scale) +
                            ", block=" + std::to_string(rows));

      // TreeModel::predict_accumulate (boosting's in-fit score update) is
      // the same walk for trees that read every column.
      for (const MappedTree& t : trees) {
        if (!t.features.empty()) continue;
        std::vector<double> member = start;
        std::vector<double> member_want = start;
        t.tree.predict_accumulate(q, scale, member);
        oracle::reference_tree_accumulate(t.tree, q, scale, member_want);
        expect_bits_equal(member, member_want,
                          t.label + " TreeModel walk, block=" + std::to_string(rows));
      }
    }
  }

  // The averaging forests' scorer over FlatForest(span): the per-tree sum
  // from 0.0 times 1/n.
  std::vector<TreeModel> unmapped;
  for (const MappedTree& t : trees) {
    if (t.features.empty()) unmapped.push_back(t.tree);
  }
  const FlatForest forest(unmapped);
  ASSERT_EQ(forest.tree_count(), unmapped.size());
  const double inv = 1.0 / static_cast<double>(unmapped.size());
  for (const std::size_t rows : kBlockSizes) {
    const Matrix q = query_block(rows);
    std::vector<double> want(rows, 0.0);
    for (const TreeModel& tree : unmapped) oracle::reference_tree_accumulate(tree, q, 1.0, want);
    for (double& v : want) v *= inv;
    std::vector<double> got(3, 1234.5);
    forest.predict_mean(q, got);
    expect_bits_equal(got, want, "predict_mean, block=" + std::to_string(rows));
  }
}

TEST(FlatForest, EmptyForestLeavesOutputUntouched) {
  // The forest regressors score through predict_accumulate even when a fit
  // kept no tree (boosting stops at a one-node round).
  const FlatForest flat;
  const Matrix q = query_block(64);
  std::vector<double> start(64);
  for (std::size_t r = 0; r < start.size(); ++r) start[r] = r % 2 == 0 ? -0.0 : 0.5 * r;
  std::vector<double> got = start;
  flat.predict_accumulate(q, 0.37, got);
  expect_bits_equal(got, start, "empty forest");

  // predict_mean divides by max(1, 0) trees: +0.0 on every row.
  flat.predict_mean(q, got);
  expect_bits_equal(got, std::vector<double>(64, 0.0), "empty forest mean");
}

}  // namespace
}  // namespace mlaas
