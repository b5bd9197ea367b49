#include "ml/tree/decision_tree.h"

#include "ml/serialize.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace mlaas {

TreeOptions tree_options_from_params(const ParamMap& params, std::size_t n_features,
                                     std::uint64_t seed) {
  TreeOptions opt;
  opt.criterion = params.get_string("criterion", "gini") == "entropy"
                      ? SplitCriterion::kEntropy
                      : SplitCriterion::kGini;
  opt.max_depth = static_cast<std::size_t>(std::max<long long>(0, params.get_int("max_depth", 0)));
  opt.min_samples_leaf = static_cast<std::size_t>(
      std::max<long long>(1, params.get_int("min_samples_leaf", 1)));
  opt.min_samples_split = static_cast<std::size_t>(
      std::max<long long>(2, params.get_int("min_samples_split", 2)));
  opt.max_nodes = static_cast<std::size_t>(
      std::max<long long>(0, params.get_int("node_threshold", 0)));
  if (params.get_bool("random_candidates", false)) opt.random_splits = 16;
  opt.seed = params.get_string("ordering", "standard") == "random"
                 ? derive_seed(seed, "random-ordering")
                 : seed;

  const std::string mf = params.get_string("max_features", "all");
  if (mf == "sqrt") {
    opt.max_features = static_cast<std::size_t>(
        std::max(1.0, std::round(std::sqrt(static_cast<double>(n_features)))));
  } else if (mf == "log2") {
    opt.max_features = static_cast<std::size_t>(
        std::max(1.0, std::round(std::log2(std::max<double>(2.0, static_cast<double>(n_features))))));
  } else if (mf == "all" || mf.empty()) {
    opt.max_features = 0;
  } else {
    // Integer feature count.  Unrecognized strings ("auto", garbage) fall
    // back to 0 (all features) instead of throwing out of fit().
    try {
      std::size_t parsed = 0;
      const long long v = std::stoll(mf, &parsed);
      opt.max_features =
          parsed == mf.size() ? static_cast<std::size_t>(std::max(1LL, v)) : 0;
    } catch (const std::exception&) {
      opt.max_features = 0;
    }
  }
  return opt;
}

DecisionTree::DecisionTree(const ParamMap& params, std::uint64_t seed)
    : params_(params), seed_(seed) {}

void DecisionTree::fit(const Matrix& x, const std::vector<int>& y) {
  tree_ = TreeModel();
  flat_.clear();
  if (check_single_class(y)) return;
  std::vector<double> targets(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) targets[i] = y[i] == 1 ? 1.0 : 0.0;
  tree_.fit(x, targets, {}, tree_options_from_params(params_, x.cols(), seed_));
  rebuild_flat();
}

void DecisionTree::rebuild_flat() {
  flat_.clear();
  flat_.add_tree(tree_);
}

std::vector<double> DecisionTree::predict_score(const Matrix& x) const {
  std::vector<double> out;
  predict_score_into(x, out);
  return out;
}

void DecisionTree::predict_score_into(const Matrix& x, std::vector<double>& out) const {
  if (fill_single_class(x.rows(), out)) return;
  out.resize(x.rows());
  flat_.predict_into(x, out);
}


void DecisionTree::save(std::ostream& out) const {
  save_base(out);
  tree_.save(out);
}

void DecisionTree::load(std::istream& in) {
  load_base(in);
  tree_.load(in);
  rebuild_flat();
}

}  // namespace mlaas
