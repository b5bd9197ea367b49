#include "ml/regression/tree_regressors.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/stats.h"
#include "ml/tree/decision_tree.h"
#include "ml/tree/trainer.h"
#include "util/rng.h"

namespace mlaas {

namespace {

TreeOptions regression_options(const ParamMap& params, std::size_t n_features,
                               std::uint64_t seed) {
  TreeOptions opt = tree_options_from_params(params, n_features, seed);
  opt.criterion = SplitCriterion::kMse;
  return opt;
}

void check_sizes(const Matrix& x, const std::vector<double>& y, const char* who) {
  if (x.rows() != y.size()) {
    throw std::invalid_argument(std::string(who) + ": X/y size mismatch");
  }
}

}  // namespace

RegressionTree::RegressionTree(const ParamMap& params, std::uint64_t seed)
    : params_(params), seed_(seed) {}

void RegressionTree::fit(const Matrix& x, const std::vector<double>& y) {
  check_sizes(x, y, "RegressionTree");
  tree_ = TreeModel();
  tree_.fit(x, y, {}, regression_options(params_, x.cols(), seed_));
  flat_ = FlatForest({&tree_, 1});
}

std::vector<double> RegressionTree::predict(const Matrix& x) const {
  // Before fit() the flat layout holds no tree and every prediction is 0.
  std::vector<double> out(x.rows(), 0.0);
  if (!flat_.empty()) flat_.predict_into(x, out);
  return out;
}

RandomForestRegressor::RandomForestRegressor(const ParamMap& params, std::uint64_t seed)
    : params_(params), seed_(seed) {}

void RandomForestRegressor::fit(const Matrix& x, const std::vector<double>& y) {
  check_sizes(x, y, "RandomForestRegressor");
  trees_.clear();
  const auto n_estimators = static_cast<std::size_t>(
      std::clamp<long long>(params_.get_int("n_estimators", 10), 1, 500));
  ParamMap tree_params = params_;
  if (!params_.contains("max_features")) tree_params.set("max_features", std::string("sqrt"));
  TreeOptions opt = regression_options(tree_params, x.cols(), seed_);

  trees_.resize(n_estimators);
  TreeWorkspace workspace;  // column cache + presorted orders shared by all trees
  train_forest(trees_, workspace, x, y, opt, seed_, "rfr-", /*bootstrap=*/true);
  flat_ = FlatForest(trees_);
}

std::vector<double> RandomForestRegressor::predict(const Matrix& x) const {
  std::vector<double> out;
  flat_.predict_mean(x, out);
  return out;
}

BoostedTreesRegressor::BoostedTreesRegressor(const ParamMap& params, std::uint64_t seed)
    : params_(params), seed_(seed) {}

void BoostedTreesRegressor::fit(const Matrix& x, const std::vector<double>& y) {
  check_sizes(x, y, "BoostedTreesRegressor");
  trees_.clear();
  const auto n_estimators = static_cast<std::size_t>(
      std::clamp<long long>(params_.get_int("n_estimators", 40), 1, 500));
  learning_rate_ = std::clamp(params_.get_double("learning_rate", 0.1), 1e-4, 10.0);
  const auto max_leaves = static_cast<std::size_t>(
      std::clamp<long long>(params_.get_int("max_leaves", 20), 2, 4096));

  TreeOptions opt = regression_options(params_, x.cols(), seed_);
  opt.min_samples_leaf = static_cast<std::size_t>(
      std::max<long long>(1, params_.get_int("min_instances_per_leaf", 5)));
  opt.max_nodes = 2 * max_leaves - 1;
  if (opt.max_depth == 0) {
    opt.max_depth = static_cast<std::size_t>(
        std::max(2.0, std::ceil(std::log2(static_cast<double>(max_leaves)) + 1.0)));
  }

  base_prediction_ = y.empty() ? 0.0 : mean(y);
  std::vector<double> residual(y.size());
  std::vector<double> raw(y.size(), base_prediction_);
  TreeWorkspace workspace;  // every round trains on x: presorted once, restored per tree
  for (std::size_t round = 0; round < n_estimators; ++round) {
    for (std::size_t i = 0; i < y.size(); ++i) residual[i] = y[i] - raw[i];
    TreeModel tree;
    opt.seed = derive_seed(seed_, "gbr-" + std::to_string(round));
    train_tree(tree, workspace, x, residual, {}, opt);
    if (tree.node_count() <= 1) break;
    tree.predict_accumulate(x, learning_rate_, raw);
    trees_.push_back(std::move(tree));
  }
  flat_ = FlatForest(trees_);
}

std::vector<double> BoostedTreesRegressor::predict(const Matrix& x) const {
  std::vector<double> out(x.rows(), base_prediction_);
  flat_.predict_accumulate(x, learning_rate_, out);
  return out;
}

}  // namespace mlaas
