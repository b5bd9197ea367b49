#include "eval/family.h"
#include "eval/family_predictor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "data/generators.h"
#include "linalg/stats.h"
#include "platform/local_sklearn.h"
#include "util/rng.h"

namespace mlaas {
namespace {

Measurement row(const std::string& platform, const std::string& clf, double f,
                const std::string& dataset = "d1") {
  Measurement m;
  m.dataset_id = dataset;
  m.platform = platform;
  m.feature_step = "none";
  m.classifier = clf;
  m.test.f_score = f;
  m.test.accuracy = f;
  m.test.precision = f;
  m.test.recall = f;
  return m;
}

TEST(Family, SplitByFamilyPartitionsRows) {
  MeasurementTable t;
  t.add(row("Local", "logistic_regression", 0.5));
  t.add(row("Local", "naive_bayes", 0.55));
  t.add(row("Local", "decision_tree", 0.9));
  t.add(row("Google", "auto", 0.8));  // skipped
  const auto scores = split_by_family(t);
  EXPECT_EQ(scores.linear_f.size(), 2u);
  EXPECT_EQ(scores.nonlinear_f.size(), 1u);
}

TEST(Family, GapOnCircleFavorsNonLinear) {
  // Figure 11(a): on CIRCLE, non-linear classifiers dominate.
  MeasurementOptions opt;
  opt.max_para_configs = 3;
  opt.joint_sample = 5;
  Dataset circle = make_circle_probe(11, 400);
  circle.meta().id = "circle-probe";
  const auto scores = family_gap_on_probe(circle, opt);
  ASSERT_GT(scores.linear_f.size(), 3u);
  ASSERT_GT(scores.nonlinear_f.size(), 3u);
  EXPECT_GT(mean(scores.nonlinear_f), mean(scores.linear_f) + 0.15);
}

/// The serial loop family_gap_on_probe ran before its cells moved onto a
/// pool: the reference every thread count must reproduce.
FamilyScores serial_family_gap(const Dataset& probe, const MeasurementOptions& options) {
  LocalSklearnPlatform local;
  MeasurementTable table;
  for (const auto& config : enumerate_configs(local, options)) {
    if (auto m = measure_one(probe, local, config, options)) {
      if (m->ok) table.add(std::move(*m));
    }
  }
  return split_by_family(table);
}

std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out(values.size());
  if (!values.empty()) std::memcpy(out.data(), values.data(), values.size() * sizeof(double));
  return out;
}

TEST(Family, GapIsIdenticalAcrossThreadCounts) {
  MeasurementOptions opt;
  opt.max_para_configs = 3;
  opt.joint_sample = 5;
  Dataset circle = make_circle_probe(11, 300);
  circle.meta().id = "circle-probe";
  const FamilyScores expected = serial_family_gap(circle, opt);
  ASSERT_GT(expected.linear_f.size(), 3u);
  ASSERT_GT(expected.nonlinear_f.size(), 3u);
  for (const int threads : {1, 2, 4, 16}) {
    opt.threads = threads;
    const FamilyScores got = family_gap_on_probe(circle, opt);
    EXPECT_EQ(bits(got.linear_f), bits(expected.linear_f)) << threads << " threads";
    EXPECT_EQ(bits(got.nonlinear_f), bits(expected.nonlinear_f)) << threads << " threads";
  }
}

TEST(Family, GapRejectsNegativeThreads) {
  MeasurementOptions opt;
  opt.threads = -1;
  const Dataset circle = make_circle_probe(11, 100);
  try {
    family_gap_on_probe(circle, opt);
    FAIL() << "a negative thread count was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "family_gap_on_probe: threads must be >= 0 (0 = hardware concurrency), got -1");
  }
}

TEST(FamilyPredictor, FeaturesAreMetricsPlusLabelSignature) {
  Measurement m = row("Local", "knn", 0.7);
  m.label_signature = "101";
  const auto f = family_features(m);
  ASSERT_EQ(f.size(), 4u + kLabelSignatureSize);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(f[i], 0.7);
  EXPECT_DOUBLE_EQ(f[4], 1.0);
  EXPECT_DOUBLE_EQ(f[5], 0.0);
  EXPECT_DOUBLE_EQ(f[6], 1.0);
  EXPECT_DOUBLE_EQ(f[7], 0.0);  // zero-padded beyond the signature
}

/// Synthetic meta-problem: linear rows score low, non-linear rows score
/// high -> the family predictor must become near-perfect and selected.
MeasurementTable separable_meta_table(std::uint64_t seed, const std::string& dataset) {
  MeasurementTable t;
  Rng rng(seed);
  const std::vector<std::string> linear{"logistic_regression", "naive_bayes", "linear_svm"};
  const std::vector<std::string> nonlinear{"decision_tree", "random_forest", "boosted_trees"};
  for (int i = 0; i < 30; ++i) {
    t.add(row("Local", linear[static_cast<std::size_t>(i) % 3],
              0.45 + rng.uniform(0.0, 0.05), dataset));
    t.add(row("Microsoft", nonlinear[static_cast<std::size_t>(i) % 3],
              0.9 + rng.uniform(0.0, 0.05), dataset));
  }
  return t;
}

TEST(FamilyPredictor, LearnsSeparableMetaProblem) {
  const auto table = separable_meta_table(5, "dA");
  const auto report = train_family_predictors(table, 1);
  ASSERT_EQ(report.predictors.size(), 1u);
  EXPECT_TRUE(report.predictors[0].trainable);
  EXPECT_GT(report.predictors[0].validation_f, 0.95);
  EXPECT_EQ(report.selected.size(), 1u);
}

TEST(FamilyPredictor, SkipsTinyMetaDatasets) {
  MeasurementTable t;
  t.add(row("Local", "logistic_regression", 0.5));
  t.add(row("Local", "decision_tree", 0.9));
  const auto report = train_family_predictors(t, 1);
  ASSERT_EQ(report.predictors.size(), 1u);
  EXPECT_FALSE(report.predictors[0].trainable);
  EXPECT_TRUE(report.selected.empty());
}

TEST(FamilyPredictor, PredictsBlackBoxChoices) {
  MeasurementTable table = separable_meta_table(7, "dA");
  // Black-box rows: Google scores like a non-linear model, ABM like linear.
  table.add(row("Google", "auto", 0.93, "dA"));
  table.add(row("ABM", "auto", 0.47, "dA"));
  const auto report = train_family_predictors(table, 1);
  ASSERT_FALSE(report.selected.empty());

  const auto google = predict_blackbox_choices(report, table, "Google");
  ASSERT_EQ(google.size(), 1u);
  EXPECT_EQ(google[0].family, ClassifierFamily::kNonLinear);

  const auto abm = predict_blackbox_choices(report, table, "ABM");
  ASSERT_EQ(abm.size(), 1u);
  EXPECT_EQ(abm[0].family, ClassifierFamily::kLinear);
}

TEST(FamilyPredictor, UnselectedDatasetsYieldNoChoices) {
  MeasurementTable t;
  t.add(row("Google", "auto", 0.8));
  const auto report = train_family_predictors(t, 1);
  EXPECT_TRUE(predict_blackbox_choices(report, t, "Google").empty());
}

}  // namespace
}  // namespace mlaas
