#include "ml/tree/random_forest.h"

#include <algorithm>

#include "ml/tree/decision_tree.h"
#include "ml/tree/trainer.h"

namespace mlaas {

RandomForest::RandomForest(const ParamMap& params, std::uint64_t seed)
    : params_(params), seed_(seed) {}

void RandomForest::fit(const Matrix& x, const std::vector<int>& y) {
  trees_.clear();
  flat_.clear();
  if (check_single_class(y)) return;

  const auto n_estimators = static_cast<std::size_t>(
      std::clamp<long long>(params_.get_int("n_estimators", 10), 1, 500));
  const bool bootstrap = params_.get_string("resampling", "bagging") != "replicate";

  // Forests default to sqrt feature sampling unless told otherwise.
  ParamMap tree_params = params_;
  if (!params_.contains("max_features")) tree_params.set("max_features", std::string("sqrt"));
  TreeOptions opt = tree_options_from_params(tree_params, x.cols(), seed_);
  opt.random_splits = static_cast<int>(
      std::clamp<long long>(params_.get_int("random_splits", 0), 0, 1024));

  std::vector<double> targets(x.rows());
  for (std::size_t i = 0; i < targets.size(); ++i) targets[i] = y[i] == 1 ? 1.0 : 0.0;
  trees_.resize(n_estimators);
  TreeWorkspace workspace;  // column cache + presorted orders shared by all trees
  train_forest(trees_, workspace, x, targets, opt, seed_, "rf-", bootstrap);
  flat_ = FlatForest(trees_);
}

void RandomForest::predict_score_into(const Matrix& x, std::vector<double>& out) const {
  if (fill_single_class(x.rows(), out)) return;
  flat_.predict_mean(x, out);
}

void RandomForest::save(std::ostream& out) const {
  save_base(out);
  save_trees(out, trees_);
}

void RandomForest::load(std::istream& in) {
  load_base(in);
  trees_ = load_trees(in, "random_forest tree count");
  flat_ = FlatForest(trees_);
}

}  // namespace mlaas
