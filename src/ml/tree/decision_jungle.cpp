#include "ml/tree/decision_jungle.h"

#include <algorithm>
#include <cmath>

#include "ml/tree/trainer.h"

namespace mlaas {

DecisionJungle::DecisionJungle(const ParamMap& params, std::uint64_t seed)
    : params_(params), seed_(seed) {}

void DecisionJungle::fit(const Matrix& x, const std::vector<int>& y) {
  dags_.clear();
  flat_.clear();
  if (check_single_class(y)) return;

  const auto n_dags = static_cast<std::size_t>(
      std::clamp<long long>(params_.get_int("n_dags", 8), 1, 256));
  const bool bootstrap = params_.get_string("resampling", "bagging") != "replicate";

  TreeOptions opt;
  opt.criterion = SplitCriterion::kEntropy;  // jungles train on information gain
  opt.max_depth = static_cast<std::size_t>(
      std::clamp<long long>(params_.get_int("max_depth", 16), 1, 64));
  opt.max_width = static_cast<std::size_t>(
      std::clamp<long long>(params_.get_int("max_width", 32), 1, 4096));
  opt.random_splits = static_cast<int>(
      std::clamp<long long>(params_.get_int("optimization_steps", 16), 1, 256));
  opt.max_features = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::max(1.0, std::sqrt(static_cast<double>(x.cols())))));

  std::vector<double> targets(x.rows());
  for (std::size_t i = 0; i < targets.size(); ++i) targets[i] = y[i] == 1 ? 1.0 : 0.0;
  dags_.resize(n_dags);
  TreeWorkspace workspace;  // column cache + presorted orders shared by all DAGs
  train_forest(dags_, workspace, x, targets, opt, seed_, "jungle-", bootstrap);
  flat_ = FlatForest(dags_);
}

void DecisionJungle::predict_score_into(const Matrix& x, std::vector<double>& out) const {
  if (fill_single_class(x.rows(), out)) return;
  flat_.predict_mean(x, out);
}

void DecisionJungle::save(std::ostream& out) const {
  save_base(out);
  save_trees(out, dags_);
}

void DecisionJungle::load(std::istream& in) {
  load_base(in);
  dags_ = load_trees(in, "decision_jungle dag count");
  flat_ = FlatForest(dags_);
}

}  // namespace mlaas
