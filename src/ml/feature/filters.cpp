#include "ml/feature/filters.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "linalg/stats.h"
#include "linalg/vector_ops.h"

namespace mlaas {

FeatureScoreFn feature_score_fn(const std::string& name) {
  auto labels_as_doubles = [](std::span<const int> y) {
    std::vector<double> out(y.size());
    for (std::size_t i = 0; i < y.size(); ++i) out[i] = y[i];
    return out;
  };
  if (name == "pearson") {
    return [=](std::span<const double> f, std::span<const int> y) {
      return std::abs(pearson(f, labels_as_doubles(y)));
    };
  }
  if (name == "spearman") {
    return [=](std::span<const double> f, std::span<const int> y) {
      return std::abs(spearman(f, labels_as_doubles(y)));
    };
  }
  if (name == "kendall") {
    return [=](std::span<const double> f, std::span<const int> y) {
      return std::abs(kendall(f, labels_as_doubles(y)));
    };
  }
  if (name == "mutual_info") {
    return [](std::span<const double> f, std::span<const int> y) {
      return mutual_information(f, y);
    };
  }
  if (name == "chi2") {
    return [](std::span<const double> f, std::span<const int> y) {
      // chi2 assumes non-negative features; shift to min 0 first.
      std::vector<double> shifted(f.begin(), f.end());
      const double lo = min_value(shifted);
      if (lo < 0) {
        for (double& v : shifted) v -= lo;
      }
      return chi_squared(shifted, y);
    };
  }
  if (name == "fisher") {
    return [](std::span<const double> f, std::span<const int> y) {
      return fisher_score(f, y);
    };
  }
  if (name == "count") {
    // Count-based: features with more distinct non-zero mass rank higher
    // (a variance/coverage proxy, Microsoft's "Count" filter).
    return [](std::span<const double> f, std::span<const int>) { return variance(f); };
  }
  if (name == "f_classif") {
    return [](std::span<const double> f, std::span<const int> y) { return anova_f(f, y); };
  }
  throw std::invalid_argument("feature_score_fn: unknown score " + name);
}

std::vector<double> score_features(const Matrix& x, const std::vector<int>& y,
                                   const FeatureScoreFn& fn) {
  std::vector<double> scores(x.cols());
  for (std::size_t c = 0; c < x.cols(); ++c) {
    const auto col = x.col(c);
    const double s = fn(col, y);
    scores[c] = std::isfinite(s) ? s : 0.0;
  }
  return scores;
}

SelectKBest::SelectKBest(std::string score_name, std::size_t k)
    : score_name_(std::move(score_name)), k_(k) {
  feature_score_fn(score_name_);  // validate eagerly; throws on unknown names
}

void SelectKBest::fit(const Matrix& x, const std::vector<int>& y) {
  const auto scores = score_features(x, y, feature_score_fn(score_name_));
  std::size_t k = k_ == 0 ? std::max<std::size_t>(1, x.cols() / 2) : std::min(k_, x.cols());
  std::vector<std::size_t> order(x.cols());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return scores[a] > scores[b]; });
  selected_.assign(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k));
  std::sort(selected_.begin(), selected_.end());
}

Matrix SelectKBest::transform(const Matrix& x) const {
  if (selected_.empty()) throw std::logic_error("SelectKBest: transform before fit");
  return x.select_cols(selected_);
}

void FisherLdaExtractor::fit(const Matrix& x, const std::vector<int>& y) {
  const std::size_t d = x.cols();
  // Class means.
  std::vector<double> mean0(d, 0.0), mean1(d, 0.0);
  std::size_t n0 = 0, n1 = 0;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    auto& m = y[r] == 1 ? mean1 : mean0;
    (y[r] == 1 ? n1 : n0) += 1;
    for (std::size_t c = 0; c < d; ++c) m[c] += x(r, c);
  }
  if (n0 == 0 || n1 == 0) {
    direction_.assign(d, 0.0);
    if (d > 0) direction_[0] = 1.0;
    return;
  }
  for (std::size_t c = 0; c < d; ++c) {
    mean0[c] /= static_cast<double>(n0);
    mean1[c] /= static_cast<double>(n1);
  }
  // Within-class scatter with ridge regularization.
  Matrix sw(d, d);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto& m = y[r] == 1 ? mean1 : mean0;
    for (std::size_t i = 0; i < d; ++i) {
      const double di = x(r, i) - m[i];
      for (std::size_t j = i; j < d; ++j) {
        sw(i, j) += di * (x(r, j) - m[j]);
      }
    }
  }
  double trace = 0.0;
  for (std::size_t i = 0; i < d; ++i) trace += sw(i, i);
  const double ridge = 1e-3 * (trace > 0 ? trace / static_cast<double>(d) : 1.0);
  for (std::size_t i = 0; i < d; ++i) {
    sw(i, i) += ridge;
    for (std::size_t j = i + 1; j < d; ++j) sw(j, i) = sw(i, j);
  }
  std::vector<double> diff(d);
  for (std::size_t c = 0; c < d; ++c) diff[c] = mean1[c] - mean0[c];
  direction_ = solve_spd(std::move(sw), std::move(diff));
  const double n = norm2(direction_);
  if (n > 0) scale_inplace(direction_, 1.0 / n);
}

Matrix FisherLdaExtractor::transform(const Matrix& x) const {
  if (direction_.size() != x.cols()) {
    throw std::invalid_argument("FisherLdaExtractor: column mismatch");
  }
  Matrix out(x.rows(), 1);
  const auto projected = x.multiply(direction_);
  for (std::size_t r = 0; r < x.rows(); ++r) out(r, 0) = projected[r];
  return out;
}

TransformerPtr make_feature_step(const std::string& name) {
  if (name.empty() || name == "none") return nullptr;
  if (name.rfind("filter_", 0) == 0) {
    return std::make_unique<SelectKBest>(name.substr(7));
  }
  if (name == "fisher_lda") return std::make_unique<FisherLdaExtractor>();
  return make_scaler(name);
}

FittedFeatureStep fit_feature_step(const std::string& name, const Matrix& x,
                                   const std::vector<int>& y) {
  TransformerPtr step = make_feature_step(name);
  if (step == nullptr) throw std::invalid_argument("fit_feature_step: no step named " + name);
  step->fit(x, y);
  auto train_x = std::make_shared<const Matrix>(step->transform(x));
  return {std::move(step), std::move(train_x)};
}

}  // namespace mlaas
