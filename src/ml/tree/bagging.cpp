#include "ml/tree/bagging.h"

#include "ml/serialize.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "ml/tree/decision_tree.h"
#include "ml/tree/trainer.h"
#include "util/rng.h"

namespace mlaas {

BaggedTrees::BaggedTrees(const ParamMap& params, std::uint64_t seed)
    : params_(params), seed_(seed) {}

void BaggedTrees::fit(const Matrix& x, const std::vector<int>& y) {
  members_.clear();
  flat_.clear();
  if (check_single_class(y)) return;

  const auto n_estimators = static_cast<std::size_t>(
      std::clamp<long long>(params_.get_int("n_estimators", 10), 1, 500));
  const double feature_fraction =
      std::clamp(params_.get_double("max_features", 1.0), 0.05, 1.0);
  const std::size_t d = x.cols();
  const std::size_t n = x.rows();
  const auto n_member_features = static_cast<std::size_t>(
      std::max(1.0, std::round(feature_fraction * static_cast<double>(d))));

  ParamMap tree_params = params_;
  tree_params.set("max_features", std::string("all"));
  TreeOptions base_opt = tree_options_from_params(tree_params, d, seed_);

  std::vector<double> targets(n);
  for (std::size_t i = 0; i < n; ++i) targets[i] = y[i] == 1 ? 1.0 : 0.0;

  members_.resize(n_estimators);
  std::vector<std::size_t> boot_rows(n);
  std::vector<double> boot_targets(n);
  TreeWorkspace workspace;  // column cache + presorted orders shared by all members
  for (std::size_t t = 0; t < n_estimators; ++t) {
    Rng rng(derive_seed(seed_, "bag-" + std::to_string(t)));
    auto& member = members_[t];
    member.features = n_member_features == d
                          ? std::vector<std::size_t>{}
                          : rng.sample_without_replacement(d, n_member_features);
    std::sort(member.features.begin(), member.features.end());
    for (std::size_t i = 0; i < n; ++i) {
      boot_rows[i] = rng.index(n);
      boot_targets[i] = targets[boot_rows[i]];
    }
    TreeOptions opt = base_opt;
    opt.seed = derive_seed(seed_, "bag-tree-" + std::to_string(t));
    train_tree(member.tree, workspace, x, boot_targets, {}, opt, boot_rows,
               member.features);
  }
  rebuild_flat();
}

void BaggedTrees::rebuild_flat() {
  flat_.clear();
  // Each member's column subset is baked into its node feature indices, so
  // the flat walk reads the full matrix with no per-node indirection.
  for (const auto& member : members_) flat_.add_tree(member.tree, member.features);
}

std::vector<double> BaggedTrees::predict_score(const Matrix& x) const {
  std::vector<double> out;
  predict_score_into(x, out);
  return out;
}

void BaggedTrees::predict_score_into(const Matrix& x, std::vector<double>& out) const {
  if (fill_single_class(x.rows(), out)) return;
  out.assign(x.rows(), 0.0);
  flat_.predict_accumulate(x, 1.0, out);
  const double inv = 1.0 / static_cast<double>(std::max<std::size_t>(1, members_.size()));
  for (double& v : out) v *= inv;
}

void BaggedTrees::save(std::ostream& out) const {
  save_base(out);
  model_io::write_int(out, static_cast<long long>(members_.size()));
  for (const auto& member : members_) {
    std::vector<int> features(member.features.begin(), member.features.end());
    model_io::write_ivec(out, features);
    member.tree.save(out);
  }
}

void BaggedTrees::load(std::istream& in) {
  load_base(in);
  const std::size_t count = model_io::read_count(in, "bagging member count");
  members_.clear();
  for (std::size_t m = 0; m < count; ++m) {
    Member& member = members_.emplace_back();
    const auto features = model_io::read_ivec(in);
    const auto reject = [m](const std::string& defect) {
      throw std::runtime_error("load_model: bagging member " + std::to_string(m) + " " +
                               defect);
    };
    for (const int column : features) {
      if (column < 0) reject("feature map holds negative column " + std::to_string(column));
    }
    member.features.assign(features.begin(), features.end());
    member.tree.load(in);
    // An empty map means all columns; otherwise the flat walk reads
    // feature_map[node.feature].
    if (features.empty()) continue;
    for (const TreeNode& node : member.tree.nodes()) {
      if (node.feature >= 0 && static_cast<std::size_t>(node.feature) >= features.size()) {
        reject("splits on feature " + std::to_string(node.feature) + " past its " +
               std::to_string(features.size()) + "-column feature map");
      }
    }
  }
  rebuild_flat();
}

}  // namespace mlaas
