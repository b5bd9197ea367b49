#include <gtest/gtest.h>

#include "ml/model_selection/cross_validation.h"
#include "ml/model_selection/fold_plan.h"
#include "ml/registry.h"
#include "tests/ml/test_helpers.h"
#include "util/rng.h"

namespace mlaas {
namespace {

TEST(FoldPlan, MaterializesEveryFoldOnce) {
  const Dataset ds = testing::separable(120, 5);
  const FoldPlanPtr plan = FoldPlan::compute(ds, 4, 7);
  EXPECT_EQ(plan->k, 4);
  ASSERT_EQ(plan->folds.size(), 4u);
  for (const auto& fold : plan->folds) {
    EXPECT_FALSE(fold.degenerate);
    // Each fold partitions the dataset: train + test = n.
    EXPECT_EQ(fold.train.n_samples() + fold.test.n_samples(), ds.n_samples());
    EXPECT_EQ(fold.train.n_features(), ds.n_features());
  }
  // Test folds partition the samples.
  std::size_t total_test = 0;
  for (const auto& fold : plan->folds) total_test += fold.test.n_samples();
  EXPECT_EQ(total_test, ds.n_samples());
}

TEST(FoldPlan, AppliesMinorityClassClamp) {
  Matrix x(20, 1);
  std::vector<int> y(20, 0);
  y[0] = y[1] = y[2] = 1;  // minority of 3 -> k must drop to 3
  for (std::size_t i = 0; i < 20; ++i) x(i, 0) = static_cast<double>(i);
  const Dataset ds(std::move(x), std::move(y));
  const FoldPlanPtr plan = FoldPlan::compute(ds, 10, 1);
  EXPECT_LE(plan->k, 3);
  EXPECT_GE(plan->k, 2);
  EXPECT_EQ(plan->folds.size(), static_cast<std::size_t>(plan->k));
  for (const auto& fold : plan->folds) EXPECT_FALSE(fold.degenerate);
}

TEST(FoldPlan, CvOverPlanBitIdenticalToDirectCv) {
  // The dataset overload (the one family_predictor calls) is the plan
  // overload over FoldPlan::compute(ds, k, seed), with the same seed.  A
  // random feature per split makes the classifier seed matter too.
  const Dataset ds = testing::circles(200, 11);
  const ParamMap params{{"max_features", std::string("sqrt")}};
  const CvResult direct = cross_validate("decision_tree", params, ds, 5, 42);
  const CvResult planned =
      cross_validate("decision_tree", params, *FoldPlan::compute(ds, 5, 42), 42);
  EXPECT_EQ(direct.folds, planned.folds);
  EXPECT_EQ(direct.evaluated_folds, planned.evaluated_folds);
  EXPECT_EQ(direct.mean.accuracy, planned.mean.accuracy);
  EXPECT_EQ(direct.mean.precision, planned.mean.precision);
  EXPECT_EQ(direct.mean.recall, planned.mean.recall);
  EXPECT_EQ(direct.mean.f_score, planned.mean.f_score);
  EXPECT_EQ(direct.f_score_std, planned.f_score_std);
}

TEST(FoldPlan, ExplicitAssignmentMarksDegenerateFolds) {
  const Dataset ds = testing::separable(30, 13);
  // Every sample in fold 0: fold 0 has an empty train side, fold 1 an empty
  // test side — nothing is evaluable.
  const FoldPlanPtr plan =
      FoldPlan::from_assignment(ds, std::vector<int>(ds.n_samples(), 0), 2);
  ASSERT_EQ(plan->folds.size(), 2u);
  EXPECT_TRUE(plan->folds[0].degenerate);
  EXPECT_TRUE(plan->folds[1].degenerate);
}

TEST(CrossValidation, AllDegenerateFoldsReportZeroEvaluated) {
  // Regression: the result must distinguish "k folds planned" from "how
  // many actually scored".  With every fold degenerate nothing is fit, the
  // means stay at zero and the std is zero — not NaN, not a crash.
  const Dataset ds = testing::separable(30, 17);
  const FoldPlanPtr plan =
      FoldPlan::from_assignment(ds, std::vector<int>(ds.n_samples(), 0), 2);
  bool factory_called = false;
  const CvResult cv = cross_validate(
      [&] {
        factory_called = true;
        return make_classifier("decision_tree", {}, 1);
      },
      *plan);
  EXPECT_FALSE(factory_called);
  EXPECT_EQ(cv.folds, 2);
  EXPECT_EQ(cv.evaluated_folds, 0);
  EXPECT_EQ(cv.mean.f_score, 0.0);
  EXPECT_EQ(cv.mean.accuracy, 0.0);
  EXPECT_EQ(cv.f_score_std, 0.0);
}

TEST(CrossValidation, ReportsEvaluatedFolds) {
  const Dataset ds = testing::separable(200, 21);
  const CvResult cv = cross_validate("logistic_regression", {}, ds, 5, 1);
  EXPECT_EQ(cv.folds, 5);
  EXPECT_EQ(cv.evaluated_folds, 5);
}

}  // namespace
}  // namespace mlaas
