#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <thread>

#include "ml/registry.h"
#include "ml/tree/trainer.h"
#include "platform/all_platforms.h"
#include "tests/ml/test_helpers.h"

namespace mlaas {
namespace {

bool same_bytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(), a.data().size() * sizeof(double)) == 0;
}

std::string fit_and_serialize(const std::string& name, const Dataset& ds,
                              std::uint64_t seed) {
  auto clf = make_classifier(name, {}, seed);
  clf->fit(ds.x(), ds.y());
  std::ostringstream bytes;
  clf->save(bytes);
  return bytes.str();
}

TEST(TrainContext, TreeBaseIsCachedByMatrixIdentity) {
  const Dataset ds = testing::circles(150, 31);
  TrainContext context;
  const auto a = context.tree_base(ds.x());
  const auto b = context.tree_base(ds.x());
  EXPECT_EQ(a.get(), b.get());
  const auto s = context.stats();
  EXPECT_EQ(s.tree_base_misses, 1u);
  EXPECT_EQ(s.tree_base_hits, 1u);
  EXPECT_EQ(a->rows, ds.n_samples());
  EXPECT_EQ(a->cols, ds.n_features());
}

TEST(TrainContext, ContentHashGuardsAgainstStaleState) {
  Dataset ds = testing::circles(100, 37);
  TrainContext context;
  const auto before = context.tree_base(ds.x());
  // Same object, same address, different contents: the cached presort is
  // stale and must be rebuilt, not served.
  ds.x()(0, 0) += 100.0;
  const auto after = context.tree_base(ds.x());
  EXPECT_NE(before.get(), after.get());
  const auto s = context.stats();
  EXPECT_EQ(s.tree_base_misses, 2u);
  EXPECT_EQ(s.tree_base_hits, 0u);
  // The rebuilt presort reflects the new contents: both artifacts are
  // internally consistent, but differ from each other.
  EXPECT_NE(before->columns, after->columns);
}

TEST(TrainContext, TreeFamilyModelsBitIdenticalWithAndWithoutContext) {
  const Dataset ds = testing::circles(200, 41);
  for (const char* name : {"decision_tree", "random_forest", "boosted_trees",
                           "bagging", "decision_jungle"}) {
    const std::string fresh = fit_and_serialize(name, ds, 7);
    TrainContext context;
    std::string reused_first, reused_second;
    {
      ScopedTrainContext scope(&context);
      reused_first = fit_and_serialize(name, ds, 7);
      reused_second = fit_and_serialize(name, ds, 7);  // presort served from cache
    }
    EXPECT_EQ(fresh, reused_first) << name;
    EXPECT_EQ(fresh, reused_second) << name;
    EXPECT_GE(context.stats().tree_base_hits, 1u) << name;
  }
}

TEST(TrainContext, KnnNormsBitIdenticalWithAndWithoutContext) {
  const Dataset ds = testing::separable(150, 43);
  const std::string fresh = fit_and_serialize("knn", ds, 7);
  TrainContext context;
  std::string reused_first, reused_second;
  {
    ScopedTrainContext scope(&context);
    reused_first = fit_and_serialize("knn", ds, 7);
    reused_second = fit_and_serialize("knn", ds, 7);
  }
  EXPECT_EQ(fresh, reused_first);
  EXPECT_EQ(fresh, reused_second);
}

TEST(TrainContext, FeatureStepFittedOncePerRunOfSameStepCalls) {
  const Dataset ds = testing::separable(150, 53);
  TrainContext context;
  const FittedFeatureStep first = context.feature_step("filter_kendall", ds.x(), ds.y());
  for (int i = 0; i < 3; ++i) {
    const FittedFeatureStep again = context.feature_step("filter_kendall", ds.x(), ds.y());
    EXPECT_EQ(again.step.get(), first.step.get());
    EXPECT_EQ(again.train_x.get(), first.train_x.get());
  }
  const auto s = context.stats();
  EXPECT_EQ(s.feature_step_misses, 1u);
  EXPECT_EQ(s.feature_step_hits, 3u);
  // The held transform is what a fit without the context produces.
  const FittedFeatureStep fresh = fit_feature_step("filter_kendall", ds.x(), ds.y());
  EXPECT_TRUE(same_bytes(*first.train_x, *fresh.train_x));
}

TEST(TrainContext, FeatureStepMissesOnOtherStepLabelsOrMatrix) {
  Dataset ds = testing::separable(150, 59);
  TrainContext context;
  context.feature_step("standard_scaler", ds.x(), ds.y());
  context.feature_step("minmax_scaler", ds.x(), ds.y());  // another step
  std::vector<int> flipped = ds.y();
  for (int& v : flipped) v = 1 - v;
  context.feature_step("minmax_scaler", ds.x(), flipped);  // other labels
  // Same address, new contents: the held transform is stale.
  ds.x()(0, 0) += 100.0;
  const FittedFeatureStep refit = context.feature_step("minmax_scaler", ds.x(), flipped);
  EXPECT_TRUE(same_bytes(*refit.train_x,
                         *fit_feature_step("minmax_scaler", ds.x(), flipped).train_x));
  const Matrix copy = ds.x();
  context.feature_step("minmax_scaler", copy, flipped);  // equal contents, other address
  const auto s = context.stats();
  EXPECT_EQ(s.feature_step_misses, 5u);
  EXPECT_EQ(s.feature_step_hits, 0u);
}

TEST(TrainContext, FeatureStepSlotHoldsOneStep) {
  const Dataset ds = testing::separable(150, 61);
  TrainContext context;
  FittedFeatureStep pearson = context.feature_step("filter_pearson", ds.x(), ds.y());
  const std::weak_ptr<const Matrix> pearson_x = pearson.train_x;
  context.feature_step("filter_fisher", ds.x(), ds.y());
  // The slot let go of the replaced step: ours is the last reference.
  pearson = {};
  EXPECT_TRUE(pearson_x.expired());
  context.feature_step("filter_pearson", ds.x(), ds.y());
  const auto s = context.stats();
  EXPECT_EQ(s.feature_step_misses, 3u);
  EXPECT_EQ(s.feature_step_hits, 0u);
}

TEST(TrainContext, PipelinesSharingAFeatureStepBitIdenticalWithAndWithoutContext) {
  const Dataset ds = testing::separable(200, 67);
  const auto platform = make_platform("Microsoft");
  const std::vector<std::string> classifiers{"logistic_regression", "boosted_trees",
                                             "decision_jungle"};
  auto scores = [&](const std::string& classifier) {
    PipelineConfig config;
    config.feature_step = "filter_kendall";
    config.classifier = classifier;
    return platform->train(ds, config, 7)->predict_score(ds.x());
  };
  std::vector<std::vector<double>> fresh;
  for (const auto& c : classifiers) fresh.push_back(scores(c));
  TrainContext context;
  {
    ScopedTrainContext scope(&context);
    for (std::size_t i = 0; i < classifiers.size(); ++i) {
      const std::vector<double> reused = scores(classifiers[i]);
      ASSERT_EQ(reused.size(), fresh[i].size());
      EXPECT_EQ(std::memcmp(reused.data(), fresh[i].data(), reused.size() * sizeof(double)), 0)
          << classifiers[i];
    }
  }
  const auto s = context.stats();
  EXPECT_EQ(s.feature_step_misses, 1u);
  EXPECT_EQ(s.feature_step_hits, classifiers.size() - 1);
  // The tree fits after the first train on the held transform: its presort
  // is served from the context.
  EXPECT_GE(s.tree_base_hits, 1u);
}

TEST(TrainContext, ScopedInstallRestoresPreviousContext) {
  EXPECT_EQ(active_train_context(), nullptr);
  TrainContext outer, inner;
  {
    ScopedTrainContext outer_scope(&outer);
    EXPECT_EQ(active_train_context(), &outer);
    {
      ScopedTrainContext inner_scope(&inner);
      EXPECT_EQ(active_train_context(), &inner);
    }
    EXPECT_EQ(active_train_context(), &outer);
    {
      // nullptr masks the outer context for the scope.
      ScopedTrainContext masked(nullptr);
      EXPECT_EQ(active_train_context(), nullptr);
    }
    EXPECT_EQ(active_train_context(), &outer);
  }
  EXPECT_EQ(active_train_context(), nullptr);
}

TEST(TrainContext, InstallIsPerThread) {
  TrainContext context;
  ScopedTrainContext scope(&context);
  TrainContext* seen = &context;
  std::thread worker([&] { seen = active_train_context(); });
  worker.join();
  EXPECT_EQ(seen, nullptr);  // fresh thread: no inherited context
  EXPECT_EQ(active_train_context(), &context);
}

TEST(TrainContext, SharedAcrossThreadsServesOneBuild) {
  const Dataset ds = testing::circles(120, 47);
  TrainContext context;
  std::vector<std::shared_ptr<const TreeTrainBase>> got(6);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      ScopedTrainContext scope(&context);
      got[t] = context.tree_base(ds.x());
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& base : got) {
    ASSERT_NE(base, nullptr);
    EXPECT_EQ(base.get(), got[0].get());
  }
  const auto s = context.stats();
  EXPECT_EQ(s.tree_base_misses, 1u);
  EXPECT_EQ(s.tree_base_hits, got.size() - 1);
}

}  // namespace
}  // namespace mlaas
