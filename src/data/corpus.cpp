#include "data/corpus.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "data/generators.h"
#include "data/preprocess.h"
#include "linalg/stats.h"
#include "util/rng.h"

namespace mlaas {

namespace {

constexpr std::size_t kMinSamples = 15;      // smallest dataset in the paper
constexpr std::size_t kMaxSamples = 245057;  // largest dataset in the paper
constexpr std::size_t kMaxFeatures = 4702;   // highest dimensionality

std::size_t log_uniform(Rng& rng, std::size_t lo, std::size_t hi) {
  const double v = std::exp(rng.uniform(std::log(static_cast<double>(lo)),
                                        std::log(static_cast<double>(hi))));
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::llround(v)), lo, hi);
}

/// Quantile-bin a fraction of columns into integer category codes {1..N},
/// mimicking the categorical features of the paper's corpus (§3.1 maps
/// categories to {1..N}).
void categorize_columns(Dataset& ds, double fraction, Rng& rng) {
  Matrix& x = ds.x();
  const std::size_t d = ds.n_features();
  if (d == 0) return;
  const std::size_t n_cat = static_cast<std::size_t>(fraction * static_cast<double>(d));
  if (n_cat == 0) return;
  auto cols = rng.sample_without_replacement(d, n_cat);
  for (auto c : cols) {
    const int n_levels = static_cast<int>(rng.integer(2, 12));
    auto col = x.col(c);
    const auto ranks = fractional_ranks(col);
    const double n = static_cast<double>(col.size());
    for (std::size_t r = 0; r < col.size(); ++r) {
      int level = static_cast<int>((ranks[r] - 1.0) / n * n_levels);
      level = std::clamp(level, 0, n_levels - 1);
      x(r, c) = static_cast<double>(level + 1);  // {1..N}
    }
  }
}

/// Blank out a fraction of cells (set NaN); corpus imputation restores them.
void inject_missing(Dataset& ds, double fraction, Rng& rng) {
  if (fraction <= 0.0) return;
  Matrix& x = ds.x();
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      if (rng.chance(fraction)) x(r, c) = std::numeric_limits<double>::quiet_NaN();
    }
  }
}

/// Rebalance classes by dropping positives until the target fraction.
Dataset imbalance(Dataset ds, double positive_fraction, Rng& rng) {
  if (positive_fraction >= 0.5) return ds;
  std::vector<std::size_t> pos, neg;
  for (std::size_t i = 0; i < ds.n_samples(); ++i) {
    (ds.y()[i] == 1 ? pos : neg).push_back(i);
  }
  const double target_pos =
      positive_fraction / (1.0 - positive_fraction) * static_cast<double>(neg.size());
  const std::size_t keep_pos =
      std::min(pos.size(), std::max<std::size_t>(2, static_cast<std::size_t>(target_pos)));
  rng.shuffle(pos);
  pos.resize(keep_pos);
  std::vector<std::size_t> keep = neg;
  keep.insert(keep.end(), pos.begin(), pos.end());
  std::sort(keep.begin(), keep.end());
  return ds.subset(keep);
}

struct DomainProfile {
  const char* prefix;
  double nonlinear_prob;   // fraction of datasets with non-linear processes
  double categorical_frac; // fraction of columns to categorize
  double missing_prob;     // probability the dataset has missing values
  double imbalance_prob;   // probability of class imbalance
};

DomainProfile profile_for(Domain d) {
  switch (d) {
    // Clinical/biological tables: many categorical attributes, missing
    // values common, often imbalanced (disease prevalence).
    case Domain::kLifeScience: return {"lifesci", 0.55, 0.35, 0.45, 0.50};
    // Game/telemetry data: large, mostly numeric, non-linear structure.
    case Domain::kComputerGames: return {"games", 0.70, 0.15, 0.15, 0.35};
    case Domain::kSynthetic: return {"synth", 0.60, 0.00, 0.00, 0.10};
    // Survey data: heavily categorical.
    case Domain::kSocialScience: return {"social", 0.40, 0.60, 0.35, 0.40};
    case Domain::kPhysicalScience: return {"physics", 0.60, 0.05, 0.10, 0.25};
    case Domain::kFinancial: return {"finance", 0.45, 0.30, 0.25, 0.60};
    case Domain::kOther: return {"other", 0.50, 0.25, 0.25, 0.35};
  }
  return {"unknown", 0.5, 0.2, 0.2, 0.3};
}

/// Named synthetic datasets standing in for the paper's 16 sklearn-generated
/// sets (plus one extra to reach the 17 of Fig 3a).
Dataset make_named_synthetic(std::size_t index, std::size_t n, std::size_t d, std::uint64_t seed) {
  switch (index % 8) {
    case 0: return make_circles(n, 0.08, 0.5, seed);
    case 1: return make_moons(n, 0.15, seed);
    case 2: return make_blobs(n, std::max<std::size_t>(2, d), 1.5, 6.0, seed);
    case 3: return make_gaussian_quantiles(n, std::max<std::size_t>(2, d), seed);
    case 4: return make_xor(n, 0.35, seed);
    case 5: return make_spirals(n, 0.05, seed);
    case 6:
      return make_sparse_linear(n, std::max<std::size_t>(2, d),
                                std::max<std::size_t>(1, d / 4), 0.05, seed);
    default: {
      MakeClassificationOptions opt;
      opt.n_samples = n;
      opt.n_features = std::max<std::size_t>(2, d);
      opt.n_informative = std::max<std::size_t>(1, opt.n_features / 3);
      opt.n_redundant = opt.n_features >= 3 ? opt.n_features / 4 : 0;
      opt.class_sep = 1.2;
      opt.flip_y = 0.03;
      return make_classification(opt, seed);
    }
  }
}

Dataset make_domain_dataset(Domain domain, const DomainProfile& profile, std::size_t n,
                            std::size_t d, Rng& rng, std::uint64_t seed) {
  const bool nonlinear = rng.chance(profile.nonlinear_prob);
  if (!nonlinear) {
    if (rng.chance(0.5) && d >= 4) {
      return make_sparse_linear(n, d, std::max<std::size_t>(1, d / 3),
                                rng.uniform(0.0, 0.08), seed);
    }
    MakeClassificationOptions opt;
    opt.n_samples = n;
    opt.n_features = std::max<std::size_t>(1, d);
    opt.n_informative = std::max<std::size_t>(1, opt.n_features / 2);
    opt.n_redundant = opt.n_features > 2 ? opt.n_features / 5 : 0;
    opt.n_clusters_per_class = 1;
    opt.class_sep = rng.uniform(0.8, 2.0);
    opt.flip_y = rng.uniform(0.0, 0.1);
    return make_classification(opt, seed);
  }
  // Non-linear generating processes, weighted toward the multi-cluster
  // hypercube problem (most "real" tabular non-linearity looks like this).
  switch (rng.index(4)) {
    case 0:
      if (domain == Domain::kComputerGames || d < 2) break;
      return make_gaussian_quantiles(n, std::max<std::size_t>(2, d), seed);
    case 1:
      if (d > 6) break;  // low-dimensional geometric patterns only
      return make_moons(n, rng.uniform(0.1, 0.3), seed);
    default: break;
  }
  MakeClassificationOptions opt;
  opt.n_samples = n;
  opt.n_features = std::max<std::size_t>(2, d);
  opt.n_informative = std::max<std::size_t>(2, opt.n_features / 2);
  opt.n_redundant = opt.n_features > 4 ? opt.n_features / 5 : 0;
  opt.n_clusters_per_class = 1 + rng.index(3);  // 2-3 clusters -> non-linear
  if (opt.n_clusters_per_class == 1) opt.n_clusters_per_class = 2;
  opt.class_sep = rng.uniform(0.8, 1.8);
  opt.flip_y = rng.uniform(0.0, 0.1);
  return make_classification(opt, seed);
}

}  // namespace

std::vector<std::pair<Domain, std::size_t>> corpus_domain_plan(std::size_t n_datasets) {
  // Figure 3(a) breakdown for 119 datasets, scaled proportionally otherwise.
  const std::vector<std::pair<Domain, std::size_t>> base = {
      {Domain::kLifeScience, 44},   {Domain::kComputerGames, 18},
      {Domain::kSynthetic, 17},     {Domain::kSocialScience, 10},
      {Domain::kPhysicalScience, 10}, {Domain::kFinancial, 7},
      {Domain::kOther, 13},
  };
  if (n_datasets == 119) return base;
  std::vector<std::pair<Domain, std::size_t>> plan;
  std::size_t assigned = 0;
  for (const auto& [domain, count] : base) {
    const auto scaled = std::max<std::size_t>(1, count * n_datasets / 119);
    plan.emplace_back(domain, scaled);
    assigned += scaled;
  }
  // Adjust the largest bucket to hit the exact total.  Below 6 datasets the
  // one-per-domain floor overshoots by more than that bucket holds, so the
  // rest of the excess comes out of the next buckets in order.
  if (assigned < n_datasets) plan.front().second += n_datasets - assigned;
  std::size_t excess = assigned > n_datasets ? assigned - n_datasets : 0;
  for (auto& bucket : plan) {
    const std::size_t take = std::min(bucket.second, excess);
    bucket.second -= take;
    excess -= take;
  }
  return plan;
}

std::vector<Dataset> build_corpus(const CorpusOptions& options) {
  if (options.n_datasets == 0) throw std::invalid_argument("build_corpus: n_datasets == 0");
  const auto cap_samples = static_cast<std::size_t>(
      std::max(32.0, options.scale * static_cast<double>(options.max_samples)));
  const auto cap_features = static_cast<std::size_t>(
      std::max(2.0, options.scale * static_cast<double>(options.max_features)));

  std::vector<Dataset> corpus;
  corpus.reserve(options.n_datasets);
  std::size_t global_index = 0;
  for (const auto& [domain, count] : corpus_domain_plan(options.n_datasets)) {
    const DomainProfile profile = profile_for(domain);
    for (std::size_t k = 0; k < count; ++k, ++global_index) {
      const std::uint64_t ds_seed = derive_seed(options.seed, "corpus-" +
                                                std::to_string(global_index));
      Rng rng(derive_seed(ds_seed, "plan"));

      const std::size_t nominal_n = log_uniform(rng, kMinSamples, kMaxSamples);
      const std::size_t nominal_d = log_uniform(rng, 1, kMaxFeatures);
      const std::size_t n = std::max<std::size_t>(kMinSamples,
                                                  std::min(nominal_n, cap_samples));
      const std::size_t d = std::max<std::size_t>(1, std::min(nominal_d, cap_features));

      Dataset ds = domain == Domain::kSynthetic
                       ? make_named_synthetic(k, n, d, derive_seed(ds_seed, "gen"))
                       : make_domain_dataset(domain, profile, n, d, rng,
                                             derive_seed(ds_seed, "gen"));

      if (domain != Domain::kSynthetic) {
        categorize_columns(ds, rng.chance(0.7) ? profile.categorical_frac : 0.0, rng);
        if (rng.chance(profile.missing_prob)) {
          inject_missing(ds, rng.uniform(0.005, 0.05), rng);
        }
      }
      if (ds.n_samples() >= 40 && rng.chance(profile.imbalance_prob)) {
        ds = imbalance(std::move(ds), rng.uniform(0.08, 0.35), rng);
      }
      if (options.impute && ds.has_missing()) impute_median(ds);

      ds.meta().id = std::string(profile.prefix) + "-" +
                     (k < 10 ? "00" : k < 100 ? "0" : "") + std::to_string(k);
      if (ds.meta().name.empty()) ds.meta().name = ds.meta().id;
      ds.meta().name = ds.meta().id + ":" + ds.meta().name;
      ds.meta().domain = domain;
      ds.meta().nominal_samples = nominal_n;
      ds.meta().nominal_features = nominal_d;
      corpus.push_back(std::move(ds));
    }
  }
  return corpus;
}

}  // namespace mlaas
