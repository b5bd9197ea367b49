#include "ml/tree/random_forest.h"

#include "ml/serialize.h"

#include <algorithm>
#include <cmath>

#include "ml/tree/decision_tree.h"
#include "ml/tree/trainer.h"
#include "util/rng.h"

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

  const std::size_t n = x.rows();
  std::vector<double> targets(n);
  std::vector<double> boot_targets(n);
  std::vector<std::size_t> boot_rows(n);
  for (std::size_t i = 0; i < n; ++i) targets[i] = y[i] == 1 ? 1.0 : 0.0;

  trees_.resize(n_estimators);
  TreeWorkspace workspace;  // column cache + presorted orders shared by all trees
  for (std::size_t t = 0; t < n_estimators; ++t) {
    opt.seed = derive_seed(seed_, "rf-" + std::to_string(t));
    if (bootstrap) {
      Rng rng(derive_seed(opt.seed, "bootstrap"));
      for (std::size_t i = 0; i < n; ++i) {
        boot_rows[i] = rng.index(n);
        boot_targets[i] = targets[boot_rows[i]];
      }
      train_tree(trees_[t], workspace, x, boot_targets, {}, opt, boot_rows);
    } else {
      train_tree(trees_[t], workspace, x, targets, {}, opt);
    }
  }
  rebuild_flat();
}

void RandomForest::rebuild_flat() {
  flat_.clear();
  for (const auto& tree : trees_) flat_.add_tree(tree);
}

std::vector<double> RandomForest::predict_score(const Matrix& x) const {
  std::vector<double> out;
  predict_score_into(x, out);
  return out;
}

void RandomForest::predict_score_into(const Matrix& x, std::vector<double>& out) const {
  if (fill_single_class(x.rows(), out)) return;
  out.assign(x.rows(), 0.0);
  flat_.predict_accumulate(x, 1.0, out);
  const double inv = 1.0 / static_cast<double>(std::max<std::size_t>(1, trees_.size()));
  for (double& v : out) v *= inv;
}

void RandomForest::save(std::ostream& out) const {
  save_base(out);
  model_io::write_int(out, static_cast<long long>(trees_.size()));
  for (const auto& tree : trees_) tree.save(out);
}

void RandomForest::load(std::istream& in) {
  load_base(in);
  const std::size_t count = model_io::read_count(in, "random_forest tree count");
  trees_.clear();
  for (std::size_t t = 0; t < count; ++t) trees_.emplace_back().load(in);
  rebuild_flat();
}

}  // namespace mlaas
