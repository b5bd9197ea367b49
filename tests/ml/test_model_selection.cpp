#include <gtest/gtest.h>

#include "ml/model_selection/cross_validation.h"
#include "ml/model_selection/grid_search.h"
#include "tests/ml/test_helpers.h"
#include "tests/oracle/grid_search.h"
#include "util/rng.h"

namespace mlaas {
namespace {

TEST(CrossValidation, HighScoreOnSeparableData) {
  const Dataset ds = testing::separable(200, 21);
  const CvResult cv = cross_validate("logistic_regression", {}, ds, 5, 1);
  EXPECT_EQ(cv.folds, 5);
  EXPECT_GT(cv.mean.f_score, 0.9);
  EXPECT_GT(cv.mean.accuracy, 0.9);
}

TEST(CrossValidation, LinearModelFailsCirclesNonlinearWins) {
  const Dataset ds = testing::circles(300, 22);
  const CvResult lr = cross_validate("logistic_regression", {}, ds, 3, 1);
  const CvResult dt = cross_validate("decision_tree", {}, ds, 3, 1);
  EXPECT_GT(dt.mean.f_score, lr.mean.f_score + 0.15);
}

TEST(CrossValidation, FoldCountReducedForTinyMinority) {
  Matrix x(20, 1);
  std::vector<int> y(20, 0);
  y[0] = y[1] = y[2] = 1;  // minority of 3 -> k must drop to 3
  for (std::size_t i = 0; i < 20; ++i) x(i, 0) = static_cast<double>(i);
  const Dataset ds(std::move(x), std::move(y));
  const CvResult cv = cross_validate("decision_tree", {}, ds, 10, 1);
  EXPECT_LE(cv.folds, 3);
}

TEST(CrossValidation, DeterministicForSeed) {
  const Dataset ds = testing::circles(200, 23);
  const CvResult a = cross_validate("random_forest", {}, ds, 3, 9);
  const CvResult b = cross_validate("random_forest", {}, ds, 3, 9);
  EXPECT_DOUBLE_EQ(a.mean.f_score, b.mean.f_score);
}

TEST(GridSearch, FindsNonDefaultWhenItHelps) {
  // Deep trees needed: default max_depth=5 grid should prefer larger depth
  // on circles with the PredictionIO-style DT grid.
  const Dataset ds = testing::circles(400, 24);
  ClassifierGridSpec spec;
  spec.classifier = "decision_tree";
  spec.params = {ParamSpec::integer("max_depth", 3, 1, 30)};
  const GridSearchResult result = grid_search(spec, ds, GridSearchOptions{.cv_folds = 3}, 1);
  EXPECT_EQ(result.n_configs, 3u);  // sweep {3/100 -> 1, 3, 300 -> 30}
  EXPECT_GT(result.best_params.get_int("max_depth", 0), 1);
  EXPECT_GT(result.best_cv_f_score, 0.8);
}

TEST(GridSearch, ReportsConfigCount) {
  const Dataset ds = testing::separable(120, 25);
  ClassifierGridSpec spec;
  spec.classifier = "logistic_regression";
  spec.params = {ParamSpec::categorical("penalty", {"l2", "l1"})};
  const GridSearchResult result = grid_search(spec, ds, GridSearchOptions{.cv_folds = 3}, 1);
  EXPECT_EQ(result.n_configs, 2u);
}

TEST(GridSearch, TiesBreakOnCanonicalParamString) {
  // Widely separated tight blobs: every k scores a perfect F on every fold,
  // so all three configs tie and the documented rule decides — the
  // lexicographically smallest canonical parameter string wins, independent
  // of grid enumeration order.
  const Dataset ds = make_blobs(200, 4, 0.15, 8.0, 77);
  ClassifierGridSpec spec;
  spec.classifier = "knn";
  spec.params = {ParamSpec::integer("n_neighbors", 3, 1, 5)};
  const GridSearchResult result = grid_search(spec, ds, GridSearchOptions{.cv_folds = 3}, 1);
  ASSERT_DOUBLE_EQ(result.best_cv_f_score, 1.0) << "fixture must produce a tie";
  EXPECT_EQ(result.best_params.to_string(), "n_neighbors=1");
}

TEST(GridSearch, WinnerIsDeterministicAcrossRepeatedCalls) {
  const Dataset ds = testing::circles(300, 26);
  ClassifierGridSpec spec;
  spec.classifier = "decision_tree";
  spec.params = {ParamSpec::integer("max_depth", 5, 1, 30)};
  const GridSearchResult a = grid_search(spec, ds, GridSearchOptions{.cv_folds = 3}, 7);
  const GridSearchResult b = grid_search(spec, ds, GridSearchOptions{.cv_folds = 3}, 7);
  EXPECT_EQ(a.best_params.to_string(), b.best_params.to_string());
  EXPECT_DOUBLE_EQ(a.best_cv_f_score, b.best_cv_f_score);
}

TEST(GridSearch, BitIdenticalToOracleAcrossThreadCounts) {
  // The engine contract: the winner and its score are a function of (spec,
  // data, seed) only, never of the worker count or of the shared plan and
  // context, so every thread count matches the per-config oracle.  Exact
  // double equality, not tolerance.
  const Dataset ds = testing::circles(300, 28);
  ClassifierGridSpec spec;
  spec.classifier = "decision_tree";
  spec.params = {ParamSpec::integer("max_depth", 5, 1, 30),
                 ParamSpec::integer("min_samples_leaf", 4, 1, 64)};

  const GridSearchResult reference = oracle::reference_grid_search(spec, ds, 3, 7);
  ASSERT_EQ(reference.n_configs, 9u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    const GridSearchResult run =
        grid_search(spec, ds, GridSearchOptions{.cv_folds = 3, .threads = threads}, 7);
    EXPECT_EQ(run.n_configs, reference.n_configs);
    EXPECT_EQ(run.best_params.to_string(), reference.best_params.to_string())
        << "threads=" << threads;
    EXPECT_EQ(run.best_cv_f_score, reference.best_cv_f_score) << "threads=" << threads;
  }
}

TEST(GridSearch, SharedFoldsMatchDatasetLevelCv) {
  // Documented fold-seeding contract: every config is scored on the folds a
  // direct cross_validate(..., ds, k, seed) call would draw, so a
  // single-config grid reproduces that CV score exactly.
  const Dataset ds = testing::circles(200, 30);
  ClassifierGridSpec spec;
  spec.classifier = "decision_tree";  // no swept params -> one default config
  const GridSearchResult result = grid_search(spec, ds, GridSearchOptions{.cv_folds = 3}, 11);
  ASSERT_EQ(result.n_configs, 1u);
  const ParamMap config = spec.default_config();
  const CvResult cv = cross_validate(
      spec.classifier, config, *FoldPlan::compute(ds, 3, 11),
      derive_seed(11, config.to_string()));
  EXPECT_EQ(result.best_cv_f_score, cv.mean.f_score);
}

}  // namespace
}  // namespace mlaas
