// Property-style tests run over EVERY registry classifier via parameterized
// gtest: determinism, score validity, single-class handling, constant
// columns, and minimum competence on a separable problem.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "ml/registry.h"
#include "ml/tree/trainer.h"
#include "tests/ml/test_helpers.h"
#include "util/rng.h"

namespace mlaas {
namespace {

class ClassifierProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(ClassifierProperty, SeparableProblemAboveChance) {
  auto clf = make_classifier(GetParam(), {}, 1);
  EXPECT_GT(testing::holdout_accuracy(*clf, testing::separable()), 0.9)
      << GetParam() << " failed a trivially separable problem";
}

TEST_P(ClassifierProperty, ScoresAreProbabilities) {
  const Dataset ds = testing::separable(150, 11);
  auto clf = make_classifier(GetParam(), {}, 2);
  clf->fit(ds.x(), ds.y());
  testing::expect_scores_in_unit_interval(*clf, ds.x());
}

TEST_P(ClassifierProperty, PredictionsMatchThresholdedScores) {
  const Dataset ds = testing::separable(150, 12);
  auto clf = make_classifier(GetParam(), {}, 3);
  clf->fit(ds.x(), ds.y());
  const auto scores = clf->predict_score(ds.x());
  const auto labels = clf->predict(ds.x());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(labels[i], scores[i] > 0.5 ? 1 : 0);
  }
}

TEST_P(ClassifierProperty, DeterministicForSameSeed) {
  const Dataset ds = testing::circles(200, 13);
  auto a = make_classifier(GetParam(), {}, 77);
  auto b = make_classifier(GetParam(), {}, 77);
  a->fit(ds.x(), ds.y());
  b->fit(ds.x(), ds.y());
  EXPECT_EQ(a->predict(ds.x()), b->predict(ds.x()));
}

TEST_P(ClassifierProperty, SingleClassTrainingPredictsThatClass) {
  Matrix x{{1, 2}, {3, 4}, {5, 6}};
  auto clf = make_classifier(GetParam(), {}, 4);
  clf->fit(x, {1, 1, 1});
  EXPECT_EQ(clf->predict(x), (std::vector<int>{1, 1, 1}));
  auto clf0 = make_classifier(GetParam(), {}, 4);
  clf0->fit(x, {0, 0, 0});
  EXPECT_EQ(clf0->predict(x), (std::vector<int>{0, 0, 0}));
}

TEST_P(ClassifierProperty, LabelPermutationInvariantAccuracy) {
  // Shuffling training-row order must not change the model family's ability
  // (exact equality is not required for SGD learners; accuracy must hold).
  const Dataset ds = testing::separable(200, 14);
  std::vector<std::size_t> perm(ds.n_samples());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = perm.size() - 1 - i;
  const Dataset reversed = ds.subset(perm);
  auto clf = make_classifier(GetParam(), {}, 5);
  clf->fit(reversed.x(), reversed.y());
  EXPECT_GT(accuracy_score(ds.y(), clf->predict(ds.x())), 0.9);
}

// Constant columns: every column, or every even one (the odd ones carry
// the signal).  Tree fits flag constant features in their presort and never
// bind them, so the tree family must also save the same bytes whether the
// presort comes from a fresh build or a TrainContext's cache.
TEST_P(ClassifierProperty, ConstantColumnsGiveValidDeterministicScores) {
  const std::set<std::string> kTreeFamily = {"decision_tree", "random_forest", "bagging",
                                             "boosted_trees", "decision_jungle"};
  const std::size_t n = 60, d = 6;
  Rng rng(21);
  std::vector<int> y(n);
  for (std::size_t r = 0; r < n; ++r) y[r] = r % 3 == 0 ? 1 : 0;
  for (const bool all_constant : {true, false}) {
    Matrix x(n, d);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < d; ++c) {
        x(r, c) = all_constant || c % 2 == 0 ? 0.5 * static_cast<double>(c) - 1.0
                                             : rng.normal() + 2.0 * y[r];
      }
    }
    SCOPED_TRACE(all_constant ? "all columns constant" : "even columns constant");
    auto fit = [&] {
      auto clf = make_classifier(GetParam(), {}, 8);
      clf->fit(x, y);
      return clf;
    };
    const auto a = fit();
    const auto scores = a->predict_score(x);
    ASSERT_EQ(scores.size(), n);
    testing::expect_scores_in_unit_interval(*a, x);  // finite, since in [0, 1]
    EXPECT_EQ(scores, fit()->predict_score(x));
    if (kTreeFamily.count(GetParam()) == 0) continue;

    std::ostringstream fresh, cached;
    a->save(fresh);
    TrainContext context;
    ScopedTrainContext scope(&context);
    fit();  // builds and caches the presort
    fit()->save(cached);
    EXPECT_EQ(fresh.str(), cached.str());
    EXPECT_GE(context.stats().tree_base_hits, 1u);
  }
}

TEST_P(ClassifierProperty, NameMatchesRegistry) {
  auto clf = make_classifier(GetParam(), {}, 6);
  EXPECT_EQ(clf->name(), GetParam());
}

TEST_P(ClassifierProperty, FamilyMatchesRegistryTable) {
  auto clf = make_classifier(GetParam(), {}, 7);
  EXPECT_EQ(clf->is_linear(), classifier_is_linear(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllClassifiers, ClassifierProperty,
                         ::testing::ValuesIn(classifier_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_classifier("no_such_classifier"), std::invalid_argument);
}

TEST(Registry, AbbreviationsMatchTable4) {
  EXPECT_EQ(classifier_abbrev("logistic_regression"), "LR");
  EXPECT_EQ(classifier_abbrev("boosted_trees"), "BST");
  EXPECT_EQ(classifier_abbrev("decision_jungle"), "DJ");
  EXPECT_EQ(classifier_abbrev("mlp"), "MLP");
}

TEST(Registry, FourteenClassifiers) { EXPECT_EQ(classifier_names().size(), 14u); }

TEST(Registry, LinearFamilyMatchesTable5) {
  // Table 5: linear = {LR, NB, Linear SVM, LDA}; our roster adds the two
  // linear Microsoft classifiers (AP, BPM).
  EXPECT_TRUE(classifier_is_linear("logistic_regression"));
  EXPECT_TRUE(classifier_is_linear("naive_bayes"));
  EXPECT_TRUE(classifier_is_linear("linear_svm"));
  EXPECT_TRUE(classifier_is_linear("lda"));
  EXPECT_FALSE(classifier_is_linear("decision_tree"));
  EXPECT_FALSE(classifier_is_linear("random_forest"));
  EXPECT_FALSE(classifier_is_linear("boosted_trees"));
  EXPECT_FALSE(classifier_is_linear("knn"));
  EXPECT_FALSE(classifier_is_linear("bagging"));
  EXPECT_FALSE(classifier_is_linear("mlp"));
}

}  // namespace
}  // namespace mlaas
