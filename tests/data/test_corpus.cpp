#include "data/corpus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

namespace mlaas {
namespace {

CorpusOptions small_options() {
  CorpusOptions opt;
  opt.seed = 42;
  opt.n_datasets = 119;
  opt.max_samples = 120;
  opt.max_features = 10;
  return opt;
}

TEST(Corpus, DomainPlanMatchesFigure3a) {
  const auto plan = corpus_domain_plan(119);
  std::map<Domain, std::size_t> counts(plan.begin(), plan.end());
  EXPECT_EQ(counts[Domain::kLifeScience], 44u);
  EXPECT_EQ(counts[Domain::kComputerGames], 18u);
  EXPECT_EQ(counts[Domain::kSynthetic], 17u);
  EXPECT_EQ(counts[Domain::kSocialScience], 10u);
  EXPECT_EQ(counts[Domain::kPhysicalScience], 10u);
  EXPECT_EQ(counts[Domain::kFinancial], 7u);
  EXPECT_EQ(counts[Domain::kOther], 13u);
}

TEST(Corpus, DomainPlanScalesToOtherSizes) {
  const auto plan = corpus_domain_plan(24);
  std::size_t total = 0;
  for (const auto& [d, c] : plan) total += c;
  EXPECT_EQ(total, 24u);
}

TEST(Corpus, DomainPlanSumsToNForEverySize) {
  // Below 6 datasets the one-per-domain floor used to drive the first bucket
  // below zero, which wrapped to ~1.8e19 datasets.  From 6 up the plan must
  // stay what the original arithmetic gave (it never wrapped there), so the
  // committed corpora do not change.
  const auto base = corpus_domain_plan(119);
  for (std::size_t n = 1; n <= 300; ++n) {
    const auto plan = corpus_domain_plan(n);
    ASSERT_EQ(plan.size(), base.size());
    std::size_t total = 0;
    for (const auto& [domain, count] : plan) {
      EXPECT_LE(count, n) << "n=" << n;
      total += count;
    }
    EXPECT_EQ(total, n);
    if (n < 6) continue;
    std::vector<long long> expected;
    long long assigned = 0;
    for (const auto& [domain, count] : base) {
      expected.push_back(std::max<long long>(1, static_cast<long long>(count * n / 119)));
      assigned += expected.back();
    }
    expected.front() += static_cast<long long>(n) - assigned;
    for (std::size_t d = 0; d < plan.size(); ++d) {
      EXPECT_EQ(plan[d].first, base[d].first);
      EXPECT_EQ(static_cast<long long>(plan[d].second), expected[d]) << "n=" << n << " d=" << d;
    }
  }
}

TEST(Corpus, BuildsTinyCorpus) {
  CorpusOptions opt = small_options();
  opt.n_datasets = 2;
  const auto corpus = build_corpus(opt);
  ASSERT_EQ(corpus.size(), 2u);
  for (const auto& ds : corpus) ds.check();
}

TEST(Corpus, Builds119Datasets) {
  const auto corpus = build_corpus(small_options());
  EXPECT_EQ(corpus.size(), 119u);
}

TEST(Corpus, UniqueIdsAndValidLabels) {
  const auto corpus = build_corpus(small_options());
  std::set<std::string> ids;
  for (const auto& ds : corpus) {
    EXPECT_TRUE(ids.insert(ds.meta().id).second) << "duplicate id " << ds.meta().id;
    EXPECT_GE(ds.n_samples(), 15u);
    EXPECT_GE(ds.n_features(), 1u);
    ds.check();
    // Both classes present (classifiers need them after a 70/30 split).
    EXPECT_GT(ds.positive_fraction(), 0.0);
    EXPECT_LT(ds.positive_fraction(), 1.0);
  }
}

TEST(Corpus, RespectsCaps) {
  const auto corpus = build_corpus(small_options());
  for (const auto& ds : corpus) {
    EXPECT_LE(ds.n_samples(), 130u);  // cap + imbalance slack
    EXPECT_LE(ds.n_features(), 10u);
  }
}

TEST(Corpus, NominalSizesSpanPaperRange) {
  const auto corpus = build_corpus(small_options());
  std::size_t min_n = SIZE_MAX, max_n = 0, max_d = 0;
  for (const auto& ds : corpus) {
    min_n = std::min(min_n, ds.meta().nominal_samples);
    max_n = std::max(max_n, ds.meta().nominal_samples);
    max_d = std::max(max_d, ds.meta().nominal_features);
  }
  EXPECT_LT(min_n, 200u);     // small datasets exist (paper min: 15)
  EXPECT_GT(max_n, 10000u);   // large datasets exist (paper max: 245k)
  EXPECT_GT(max_d, 100u);     // high-dimensional datasets exist
}

TEST(Corpus, ImputesMissingByDefault) {
  const auto corpus = build_corpus(small_options());
  for (const auto& ds : corpus) EXPECT_FALSE(ds.has_missing());
}

TEST(Corpus, KeepsMissingWhenImputeOff) {
  CorpusOptions opt = small_options();
  opt.impute = false;
  const auto corpus = build_corpus(opt);
  bool any_missing = false;
  for (const auto& ds : corpus) any_missing = any_missing || ds.has_missing();
  EXPECT_TRUE(any_missing);
}

TEST(Corpus, DeterministicForSeed) {
  const auto a = build_corpus(small_options());
  const auto b = build_corpus(small_options());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].meta().id, b[i].meta().id);
    EXPECT_EQ(a[i].n_samples(), b[i].n_samples());
    EXPECT_EQ(a[i].y(), b[i].y());
  }
}

TEST(Corpus, MixesLinearAndNonlinearProcesses) {
  const auto corpus = build_corpus(small_options());
  std::size_t linear = 0;
  for (const auto& ds : corpus) linear += ds.meta().linear_ground_truth ? 1 : 0;
  EXPECT_GT(linear, 20u);
  EXPECT_LT(linear, 99u);
}

TEST(Corpus, RejectsZeroDatasets) {
  CorpusOptions opt;
  opt.n_datasets = 0;
  EXPECT_THROW(build_corpus(opt), std::invalid_argument);
}

}  // namespace
}  // namespace mlaas
