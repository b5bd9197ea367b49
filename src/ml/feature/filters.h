// Filter-method feature selection (§2 "Feature selection").
//
// A statistical score, independent of the downstream classifier, ranks
// features by class-discriminatory power; SelectKBest keeps the top ones.
// Covers the 7 Microsoft filter statistics (Pearson, Mutual information,
// Kendall, Spearman, Chi-squared, Fisher, Count) plus sklearn's f_classif
// and mutual_info_classif.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ml/feature/scalers.h"

namespace mlaas {

/// Per-feature relevance score; larger = more relevant.
using FeatureScoreFn =
    std::function<double(std::span<const double> feature, std::span<const int> labels)>;

/// Look up a score function by name: "pearson", "spearman", "kendall",
/// "mutual_info", "chi2", "fisher", "count", "f_classif".
FeatureScoreFn feature_score_fn(const std::string& name);

/// Score every column of x.
std::vector<double> score_features(const Matrix& x, const std::vector<int>& y,
                                   const FeatureScoreFn& fn);

/// Keep the k highest-scoring features.  k == 0 means "half, at least 1".
class SelectKBest final : public Transformer {
 public:
  SelectKBest(std::string score_name, std::size_t k = 0);

  void fit(const Matrix& x, const std::vector<int>& y) override;
  Matrix transform(const Matrix& x) const override;
  std::string name() const override { return "select_k_best(" + score_name_ + ")"; }

  const std::vector<std::size_t>& selected() const { return selected_; }

 private:
  std::string score_name_;
  std::size_t k_;
  std::vector<std::size_t> selected_;
};

/// Fisher-LDA feature extraction (Microsoft's "Fisher LDA" FEAT option):
/// projects onto the Fisher discriminant direction, producing one feature.
class FisherLdaExtractor final : public Transformer {
 public:
  void fit(const Matrix& x, const std::vector<int>& y) override;
  Matrix transform(const Matrix& x) const override;
  std::string name() const override { return "fisher_lda"; }

 private:
  std::vector<double> direction_;
};

/// Build a FEAT pipeline step by registry name.  Accepts scaler names (see
/// make_scaler), "filter_<score>" (SelectKBest), "fisher_lda", and "none"
/// (returns nullptr).
TransformerPtr make_feature_step(const std::string& name);

/// A fitted feature step and its transform of the matrix it was fitted on.
struct FittedFeatureStep {
  std::shared_ptr<const Transformer> step;
  std::shared_ptr<const Matrix> train_x;
};

/// make_feature_step(name), fitted on (x, y), plus its transform of x.
/// Throws std::invalid_argument for an unknown name or "none".
FittedFeatureStep fit_feature_step(const std::string& name, const Matrix& x,
                                   const std::vector<int>& y);

}  // namespace mlaas
