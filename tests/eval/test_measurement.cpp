#include "eval/measurement.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>
#include <utility>

#include "data/generators.h"

namespace mlaas {
namespace {

MeasurementOptions fast_options() {
  MeasurementOptions opt;
  opt.seed = 42;
  opt.max_para_configs = 4;
  opt.joint_sample = 5;
  opt.threads = 2;
  return opt;
}

std::vector<Dataset> tiny_corpus() {
  std::vector<Dataset> corpus;
  corpus.push_back(make_blobs(80, 3, 1.0, 5.0, 1));
  corpus.back().meta().id = "blob-0";
  corpus.push_back(make_circles(80, 0.08, 0.5, 2));
  corpus.back().meta().id = "circle-0";
  return corpus;
}

TEST(EnumerateConfigs, BlackBoxHasExactlyBaseline) {
  const auto google = make_platform("Google");
  const auto configs = enumerate_configs(*google, fast_options());
  ASSERT_EQ(configs.size(), 1u);
  EXPECT_TRUE(configs[0].classifier.empty());
}

TEST(EnumerateConfigs, AmazonCoversItsParaGrid) {
  const auto amazon = make_platform("Amazon");
  const auto configs = enumerate_configs(*amazon, fast_options());
  EXPECT_GT(configs.size(), 2u);
  for (const auto& config : configs) EXPECT_TRUE(config.feature_step.empty());
}

TEST(EnumerateConfigs, NoDuplicateKeys) {
  for (const auto& name : platform_names()) {
    const auto platform = make_platform(name);
    const auto configs = enumerate_configs(*platform, fast_options());
    std::set<std::string> keys;
    for (const auto& config : configs) {
      EXPECT_TRUE(keys.insert(config.key()).second) << name << ": " << config.key();
    }
  }
}

TEST(EnumerateConfigs, MicrosoftIncludesFeatAndJointConfigs) {
  const auto microsoft = make_platform("Microsoft");
  const ControlSurface surface = microsoft->controls();
  const auto configs = enumerate_configs(*microsoft, fast_options());
  bool any_feat = false, any_joint = false;
  for (const auto& config : configs) {
    if (!config.feature_step.empty() && config.feature_step != "none") {
      any_feat = true;
      const ClassifierGridSpec* spec = surface.find(config.classifier);
      if (spec != nullptr && !(config.params == spec->default_config())) any_joint = true;
    }
  }
  EXPECT_TRUE(any_feat);
  EXPECT_TRUE(any_joint);
}

TEST(EnumerateConfigs, ScaleGrowsTheGrid) {
  const auto local = make_platform("Local");
  MeasurementOptions small = fast_options();
  MeasurementOptions large = fast_options();
  large.scale = 3.0;
  EXPECT_GT(enumerate_configs(*local, large).size(),
            enumerate_configs(*local, small).size());
}

TEST(MeasureOne, ProducesSaneMetrics) {
  const auto local = make_platform("Local");
  const auto corpus = tiny_corpus();
  const auto m = measure_one(corpus[0], *local, local->baseline_config(), fast_options());
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->dataset_id, "blob-0");
  EXPECT_EQ(m->platform, "Local");
  EXPECT_EQ(m->classifier, "logistic_regression");
  EXPECT_TRUE(m->default_params);
  EXPECT_GT(m->test.f_score, 0.8);
}

TEST(MeasureOne, InvalidConfigReturnsNullopt) {
  const auto amazon = make_platform("Amazon");
  PipelineConfig config;
  config.classifier = "decision_tree";
  const auto m = measure_one(tiny_corpus()[0], *amazon, config, fast_options());
  EXPECT_FALSE(m.has_value());
}

TEST(RunMeasurements, CoversAllPlatformsAndDatasets) {
  std::vector<PlatformPtr> platforms;
  platforms.push_back(make_platform("Google"));
  platforms.push_back(make_platform("Amazon"));
  platforms.push_back(make_platform("PredictionIO"));
  const auto table = run_campaign(tiny_corpus(), platforms, fast_options()).table;
  EXPECT_EQ(table.platforms().size(), 3u);
  EXPECT_EQ(table.dataset_ids().size(), 2u);
  EXPECT_GT(table.size(), 10u);
}

TEST(RunMeasurements, DeterministicUnderThreading) {
  std::vector<PlatformPtr> platforms;
  platforms.push_back(make_platform("Amazon"));
  MeasurementOptions serial = fast_options();
  serial.threads = 1;
  MeasurementOptions parallel = fast_options();
  parallel.threads = 4;
  const auto a = run_campaign(tiny_corpus(), platforms, serial).table;
  const auto b = run_campaign(tiny_corpus(), platforms, parallel).table;
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.rows()[i].params, b.rows()[i].params);
    EXPECT_DOUBLE_EQ(a.rows()[i].test.f_score, b.rows()[i].test.f_score);
  }
}

TEST(MeasurementTable, FiltersAndBaseline) {
  MeasurementTable table;
  Measurement m;
  m.dataset_id = "d1";
  m.platform = "Local";
  m.feature_step = "none";
  m.classifier = "logistic_regression";
  m.default_params = true;
  m.test.f_score = 0.7;
  table.add(m);
  m.classifier = "mlp";
  m.test.f_score = 0.9;
  table.add(m);
  m.feature_step = "standard_scaler";
  table.add(m);

  EXPECT_EQ(table.baseline().size(), 1u);
  EXPECT_EQ(table.for_platform("Local").size(), 3u);
  EXPECT_EQ(table.for_platform("Google").size(), 0u);
  EXPECT_EQ(table.classifiers().size(), 2u);
  const auto best = table.best_per_dataset();
  ASSERT_EQ(best.size(), 1u);
  EXPECT_DOUBLE_EQ(best[0]->test.f_score, 0.9);
}

TEST(MeasurementTable, CsvRoundTrip) {
  MeasurementTable table;
  Measurement m;
  m.dataset_id = "d1";
  m.platform = "BigML";
  m.feature_step = "none";
  m.classifier = "decision_tree";
  m.params = "max_depth=5,ordering=random";
  m.default_params = false;
  m.test = {0.91, 0.87, 0.88, 0.875};
  m.train_seconds = 0.125;
  m.label_signature = "0110";
  table.add(m);

  const std::string path = ::testing::TempDir() + "/mlaas_table_roundtrip.tsv";
  table.save_csv(path);
  const auto loaded = MeasurementTable::load_csv(path);
  ASSERT_EQ(loaded.size(), 1u);
  const auto& row = loaded.rows()[0];
  EXPECT_EQ(row.params, m.params);
  EXPECT_EQ(row.default_params, false);
  EXPECT_DOUBLE_EQ(row.test.f_score, m.test.f_score);
  EXPECT_DOUBLE_EQ(row.test.recall, m.test.recall);
  EXPECT_DOUBLE_EQ(row.train_seconds, 0.125);
  EXPECT_EQ(row.label_signature, "0110");
  std::remove(path.c_str());
}

TEST(MeasurementFingerprint, DistinguishesValuesBeyondSixDigits) {
  // Knob values equal to 6 significant digits used to share a fingerprint,
  // so a cache or journal measured under one was served for the other.
  const auto platforms = make_all_platforms();
  const auto fingerprint = [&](const MeasurementOptions& options) {
    return measurement_fingerprint({}, platforms, options);
  };
  MeasurementOptions a, b;
  a.campaign.fault_rate = 0.1;
  b.campaign.fault_rate = 0.1000001;
  EXPECT_NE(fingerprint(a), fingerprint(b));
  EXPECT_NE(fingerprint(a).find(" fault=0.1 "), std::string::npos) << fingerprint(a);
  a = b = MeasurementOptions{};
  a.scale = 0.3333333;
  b.scale = 0.33333334;
  EXPECT_NE(fingerprint(a), fingerprint(b));
  a = b = MeasurementOptions{};
  a.test_fraction = 0.3;
  b.test_fraction = 0.30000001;
  EXPECT_NE(fingerprint(a), fingerprint(b));
  a = b = MeasurementOptions{};
  a.campaign.breaker.enabled = b.campaign.breaker.enabled = true;
  a.campaign.breaker.cooldown_seconds = 90.5;
  b.campaign.breaker.cooldown_seconds = 90.500001;
  EXPECT_NE(fingerprint(a), fingerprint(b));
  EXPECT_NE(fingerprint(a).find(" breaker=3/90.5/2"), std::string::npos) << fingerprint(a);
}

TEST(MeasurementFingerprint, DistinguishesCorporaOfOneSize) {
  // The fingerprint used to name the corpus size only, so a cache measured
  // on one corpus was served for another of the same size (two quick-mode
  // scales that print alike build different corpora).
  const auto platforms = make_all_platforms();
  const MeasurementOptions options;
  const auto fingerprint = [&](const std::vector<Dataset>& corpus) {
    return measurement_fingerprint(corpus, platforms, options);
  };
  const std::string base = fingerprint(tiny_corpus());
  EXPECT_EQ(base, fingerprint(tiny_corpus()));
  std::vector<Dataset> changed = tiny_corpus();
  changed[1].x()(7, 1) = std::nextafter(changed[1].x()(7, 1), 1e9);
  EXPECT_NE(fingerprint(changed), base);
  changed = tiny_corpus();
  changed[0].y()[3] = 1 - changed[0].y()[3];
  EXPECT_NE(fingerprint(changed), base);
  changed = tiny_corpus();
  changed[0].meta().id = "blob-1";
  EXPECT_NE(fingerprint(changed), base);
  changed = tiny_corpus();
  std::swap(changed[0], changed[1]);
  EXPECT_NE(fingerprint(changed), base);
  // The digest is the fingerprint's trailing field, 16 hex digits.
  EXPECT_EQ(base.size() - base.rfind(" data="), 6u + 16u) << base;
}

TEST(RunOrLoad, UsesCacheOnSecondCall) {
  std::vector<PlatformPtr> platforms;
  platforms.push_back(make_platform("Google"));
  const std::string path = ::testing::TempDir() + "/mlaas_cache_test.tsv";
  std::remove(path.c_str());
  const auto corpus = tiny_corpus();
  const auto first = run_or_load(corpus, platforms, fast_options(), path);
  const auto second = run_or_load(corpus, platforms, fast_options(), path);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_NEAR(first.rows()[i].test.f_score, second.rows()[i].test.f_score, 1e-9);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mlaas
