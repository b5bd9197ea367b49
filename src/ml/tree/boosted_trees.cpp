#include "ml/tree/boosted_trees.h"

#include "ml/serialize.h"

#include <algorithm>
#include <cmath>

#include "linalg/vector_ops.h"
#include "ml/tree/decision_tree.h"
#include "ml/tree/trainer.h"
#include "util/rng.h"

namespace mlaas {

BoostedDecisionTrees::BoostedDecisionTrees(const ParamMap& params, std::uint64_t seed)
    : params_(params), seed_(seed) {}

void BoostedDecisionTrees::fit(const Matrix& x, const std::vector<int>& y) {
  trees_.clear();
  flat_.clear();
  if (check_single_class(y)) return;

  const auto n_estimators = static_cast<std::size_t>(
      std::clamp<long long>(params_.get_int("n_estimators", 40), 1, 500));
  learning_rate_ = std::clamp(params_.get_double("learning_rate", 0.2), 1e-4, 10.0);
  const auto max_leaves = static_cast<std::size_t>(
      std::clamp<long long>(params_.get_int("max_leaves", 20), 2, 4096));
  const auto min_leaf = static_cast<std::size_t>(
      std::max<long long>(1, params_.get_int("min_instances_per_leaf", 10)));

  TreeOptions opt = tree_options_from_params(params_, x.cols(), seed_);
  opt.criterion = SplitCriterion::kMse;
  opt.min_samples_leaf = min_leaf;
  // A tree with L leaves has 2L-1 nodes; depth cap keeps trees shallow, the
  // usual boosting regime.
  opt.max_nodes = 2 * max_leaves - 1;
  if (opt.max_depth == 0) {
    opt.max_depth = static_cast<std::size_t>(
        std::max(2.0, std::ceil(std::log2(static_cast<double>(max_leaves)) + 1.0)));
  }

  const std::size_t n = x.rows();
  const double pos = static_cast<double>(count_positive(y));
  const double prior = std::clamp(pos / static_cast<double>(n), 1e-4, 1.0 - 1e-4);
  base_score_ = std::log(prior / (1.0 - prior));

  std::vector<double> raw(n, base_score_);
  std::vector<double> grad(n), hess(n);
  TreeWorkspace workspace;  // every round trains on x: presorted once, restored per tree
  for (std::size_t round = 0; round < n_estimators; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      const double p = sigmoid(raw[i]);
      grad[i] = (y[i] == 1 ? 1.0 : 0.0) - p;  // negative gradient
      hess[i] = std::max(1e-6, p * (1.0 - p));
    }
    TreeModel tree;
    opt.seed = derive_seed(seed_, "bst-" + std::to_string(round));
    train_tree(tree, workspace, x, grad, hess, opt);
    if (tree.node_count() <= 1) break;  // no useful split left
    tree.predict_accumulate(x, learning_rate_, raw);
    trees_.push_back(std::move(tree));
  }
  flat_ = FlatForest(trees_);
}

void BoostedDecisionTrees::predict_score_into(const Matrix& x,
                                              std::vector<double>& out) const {
  if (fill_single_class(x.rows(), out)) return;
  // `out` doubles as the raw-score buffer (seeded with the log-odds prior,
  // squashed in place) — no per-call scratch vector.
  out.assign(x.rows(), base_score_);
  flat_.predict_accumulate(x, learning_rate_, out);
  for (double& v : out) v = sigmoid(v);
}

void BoostedDecisionTrees::save(std::ostream& out) const {
  save_base(out);
  model_io::write_double(out, learning_rate_);
  model_io::write_double(out, base_score_);
  save_trees(out, trees_);
}

void BoostedDecisionTrees::load(std::istream& in) {
  load_base(in);
  learning_rate_ = model_io::read_double(in);
  base_score_ = model_io::read_double(in);
  trees_ = load_trees(in, "boosted_trees tree count");
  flat_ = FlatForest(trees_);
}

}  // namespace mlaas
