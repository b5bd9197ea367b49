#include "tests/oracle/tree_fit.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "linalg/vector_ops.h"
#include "ml/classifier.h"
#include "ml/serialize.h"
#include "ml/tree/decision_tree.h"
#include "util/rng.h"

namespace mlaas::oracle {

namespace {

constexpr std::size_t kHardDepthCap = 64;

struct NodeStats {
  double n = 0.0;       // sample count
  double sum = 0.0;     // sum of targets
  double sumsq = 0.0;   // sum of squared targets
  double hess = 0.0;    // sum of hessians (0 if unused)
};

double impurity(const NodeStats& s, SplitCriterion criterion) {
  if (s.n <= 0) return 0.0;
  const double mean = s.sum / s.n;
  switch (criterion) {
    case SplitCriterion::kGini: {
      const double p = std::clamp(mean, 0.0, 1.0);
      return 2.0 * p * (1.0 - p);
    }
    case SplitCriterion::kEntropy: {
      const double p = std::clamp(mean, 0.0, 1.0);
      if (p <= 0.0 || p >= 1.0) return 0.0;
      return -(p * std::log2(p) + (1.0 - p) * std::log2(1.0 - p));
    }
    case SplitCriterion::kMse:
      return std::max(0.0, s.sumsq / s.n - mean * mean);
  }
  return 0.0;
}

struct PendingNode {
  int node_id;
  std::size_t start, end;  // range in the shared index buffer
  std::size_t depth;
  NodeStats stats;
};

struct BestSplit {
  int feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
};

/// Gain evaluation of one candidate threshold.
inline void consider_threshold(double threshold, const NodeStats& left,
                               const PendingNode& p, double parent_imp,
                               SplitCriterion criterion, std::size_t min_samples_leaf,
                               std::size_t feature, BestSplit& best) {
  NodeStats right{p.stats.n - left.n, p.stats.sum - left.sum,
                  p.stats.sumsq - left.sumsq, p.stats.hess - left.hess};
  if (left.n < static_cast<double>(min_samples_leaf) ||
      right.n < static_cast<double>(min_samples_leaf)) {
    return;
  }
  const double gain = parent_imp - (left.n / p.stats.n) * impurity(left, criterion) -
                      (right.n / p.stats.n) * impurity(right, criterion);
  if (gain > best.gain + 1e-12) {
    best = {static_cast<int>(feature), threshold, gain};
  }
}

/// The per-node re-sorting split search.
class ReferenceEngine {
 public:
  ReferenceEngine(const Matrix& x, std::span<const double> targets,
                  std::span<const double> hessians, const TreeOptions& opt)
      : targets_(targets), hessians_(hessians), use_hess_(!hessians.empty()), opt_(opt),
        x_(x) {}

  /// Best split of node p; draws feature samples / random thresholds from rng.
  BestSplit find_best_split(const PendingNode& p, Rng& rng) {
    BestSplit best;
    const double parent_imp = impurity(p.stats, opt_.criterion);
    const std::size_t n_node = p.end - p.start;
    const std::size_t d = x_.cols();

    std::size_t n_feat = opt_.max_features == 0 ? d : std::min(opt_.max_features, d);
    auto feats = rng.sample_without_replacement(d, n_feat);

    for (auto f : feats) {
      sorted_buf_.clear();
      sorted_buf_.reserve(n_node);
      for (std::size_t i = p.start; i < p.end; ++i) {
        sorted_buf_.emplace_back(x_(indices[i], f), indices[i]);
      }
      // (value, row) order, like the fast builder's presort: summation order
      // inside a tie group decides real-valued MSE folds.
      std::sort(sorted_buf_.begin(), sorted_buf_.end());
      if (sorted_buf_.front().first == sorted_buf_.back().first) continue;  // constant

      if (opt_.random_splits > 0) {
        // Extremely-randomized mode: random thresholds in (min, max).
        const double lo = sorted_buf_.front().first;
        const double hi = sorted_buf_.back().first;
        for (int s = 0; s < opt_.random_splits; ++s) {
          const double threshold = rng.uniform(lo, hi);
          NodeStats left;
          for (const auto& [v, idx] : sorted_buf_) {
            if (v > threshold) break;
            const double t = targets_[idx];
            left.n += 1.0;
            left.sum += t;
            left.sumsq += t * t;
            if (use_hess_) left.hess += hessians_[idx];
          }
          consider_threshold(threshold, left, p, parent_imp, opt_.criterion,
                             opt_.min_samples_leaf, f, best);
        }
      } else {
        // Full scan over boundaries between distinct values.
        NodeStats left;
        for (std::size_t i = 0; i + 1 < sorted_buf_.size(); ++i) {
          const auto& [v, idx] = sorted_buf_[i];
          const double t = targets_[idx];
          left.n += 1.0;
          left.sum += t;
          left.sumsq += t * t;
          if (use_hess_) left.hess += hessians_[idx];
          const double next_v = sorted_buf_[i + 1].first;
          if (v == next_v) continue;
          consider_threshold((v + next_v) / 2.0, left, p, parent_imp, opt_.criterion,
                             opt_.min_samples_leaf, f, best);
        }
      }
    }
    return best;
  }

  /// Partition indices[start, end) for an accepted split; returns mid.
  std::size_t partition(std::size_t start, std::size_t end, const BestSplit& split) {
    auto mid_it = std::partition(
        indices.begin() + static_cast<std::ptrdiff_t>(start),
        indices.begin() + static_cast<std::ptrdiff_t>(end), [&](std::size_t idx) {
          return x_(idx, static_cast<std::size_t>(split.feature)) <= split.threshold;
        });
    return static_cast<std::size_t>(mid_it - indices.begin());
  }

  std::vector<std::size_t> indices;

 private:
  std::span<const double> targets_;
  std::span<const double> hessians_;
  bool use_hess_;
  const TreeOptions& opt_;
  const Matrix& x_;
  std::vector<std::pair<double, std::size_t>> sorted_buf_;  // (value, index)
};

/// Breadth-first CART build over the reference engine; node statistics fold
/// over the engine's index buffer in node order.
void build_cart(std::vector<TreeNode>& nodes, ReferenceEngine& engine, std::size_t n,
                std::span<const double> targets, std::span<const double> hessians,
                const TreeOptions& opt) {
  nodes.clear();
  const bool use_hess = !hessians.empty();
  const std::size_t max_depth =
      opt.max_depth == 0 ? kHardDepthCap : std::min(opt.max_depth, kHardDepthCap);
  Rng rng(derive_seed(opt.seed, "tree"));

  auto& indices = engine.indices;
  indices.resize(n);
  std::iota(indices.begin(), indices.end(), std::size_t{0});

  auto stats_of = [&](std::size_t start, std::size_t end) {
    NodeStats s;
    for (std::size_t i = start; i < end; ++i) {
      const double t = targets[indices[i]];
      s.n += 1.0;
      s.sum += t;
      s.sumsq += t * t;
      if (use_hess) s.hess += hessians[indices[i]];
    }
    return s;
  };
  auto leaf_value = [&](const NodeStats& s) {
    if (use_hess) return s.sum / (s.hess + 1e-6);
    return s.n > 0 ? s.sum / s.n : 0.0;
  };

  auto make_node = [&](const NodeStats& s) {
    TreeNode node;
    node.value = leaf_value(s);
    node.n_samples = static_cast<std::uint32_t>(s.n);
    nodes.push_back(node);
    return static_cast<int>(nodes.size() - 1);
  };

  std::vector<PendingNode> frontier;
  {
    const NodeStats root_stats = stats_of(0, n);
    const int root = make_node(root_stats);
    frontier.push_back({root, 0, n, 0, root_stats});
  }

  while (!frontier.empty()) {
    // Level-width budget (decision jungle): only the widest-impact nodes of
    // each level may split; the rest stay leaves.
    if (opt.max_width > 0 && frontier.size() > opt.max_width) {
      std::stable_sort(frontier.begin(), frontier.end(),
                       [&](const PendingNode& a, const PendingNode& b) {
                         return a.stats.n * impurity(a.stats, opt.criterion) >
                                b.stats.n * impurity(b.stats, opt.criterion);
                       });
      frontier.resize(opt.max_width);
    }
    std::vector<PendingNode> next;
    for (const auto& p : frontier) {
      const std::size_t n_node = p.end - p.start;
      const bool budget_ok = opt.max_nodes == 0 || nodes.size() + 2 <= opt.max_nodes;
      if (p.depth >= max_depth || n_node < opt.min_samples_split || !budget_ok ||
          impurity(p.stats, opt.criterion) <= 1e-12) {
        continue;  // stays a leaf
      }
      const BestSplit split = engine.find_best_split(p, rng);
      if (split.feature < 0) continue;

      const std::size_t mid = engine.partition(p.start, p.end, split);
      if (mid == p.start || mid == p.end) continue;  // degenerate partition

      const NodeStats left_stats = stats_of(p.start, mid);
      const NodeStats right_stats = stats_of(mid, p.end);
      const int left = make_node(left_stats);
      const int right = make_node(right_stats);
      nodes[static_cast<std::size_t>(p.node_id)].feature = split.feature;
      nodes[static_cast<std::size_t>(p.node_id)].threshold = split.threshold;
      nodes[static_cast<std::size_t>(p.node_id)].left = left;
      nodes[static_cast<std::size_t>(p.node_id)].right = right;
      next.push_back({left, p.start, mid, p.depth + 1, left_stats});
      next.push_back({right, mid, p.end, p.depth + 1, right_stats});
    }
    frontier = std::move(next);
  }
}

// Classifier::check_single_class.
bool check_single_class(const std::vector<int>& y, ReferenceTreeFit& fit) {
  const std::size_t pos = count_positive(y);
  fit.single_class = y.empty() || pos == 0 || pos == y.size();
  if (fit.single_class) fit.single_class_label = pos > 0 ? 1 : 0;
  return fit.single_class;
}

// The fit() bodies below are the tree classifiers' own, with members turned
// into the fields of ReferenceTreeFit and train_tree into
// reference_train_tree.

void fit_decision_tree(const ParamMap& params_, std::uint64_t seed_, const Matrix& x,
                       const std::vector<int>& y, ReferenceTreeFit& fit) {
  if (check_single_class(y, fit)) return;
  std::vector<double> targets(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) targets[i] = y[i] == 1 ? 1.0 : 0.0;
  reference_train_tree(fit.trees.emplace_back(), x, targets, {},
                       tree_options_from_params(params_, x.cols(), seed_));
}

void fit_random_forest(const ParamMap& params_, std::uint64_t seed_, const Matrix& x,
                       const std::vector<int>& y, ReferenceTreeFit& fit) {
  if (check_single_class(y, fit)) return;

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

  auto& trees_ = fit.trees;
  trees_.resize(n_estimators);
  for (std::size_t t = 0; t < n_estimators; ++t) {
    opt.seed = derive_seed(seed_, "rf-" + std::to_string(t));
    if (bootstrap) {
      Rng rng(derive_seed(opt.seed, "bootstrap"));
      for (std::size_t i = 0; i < n; ++i) {
        boot_rows[i] = rng.index(n);
        boot_targets[i] = targets[boot_rows[i]];
      }
      reference_train_tree(trees_[t], x, boot_targets, {}, opt, boot_rows);
    } else {
      reference_train_tree(trees_[t], x, targets, {}, opt);
    }
  }
}

void fit_bagging(const ParamMap& params_, std::uint64_t seed_, const Matrix& x,
                 const std::vector<int>& y, ReferenceTreeFit& fit) {
  if (check_single_class(y, fit)) return;

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

  fit.trees.resize(n_estimators);
  fit.features.resize(n_estimators);
  std::vector<std::size_t> boot_rows(n);
  std::vector<double> boot_targets(n);
  for (std::size_t t = 0; t < n_estimators; ++t) {
    Rng rng(derive_seed(seed_, "bag-" + std::to_string(t)));
    auto& features = fit.features[t];
    features = n_member_features == d
                   ? std::vector<std::size_t>{}
                   : rng.sample_without_replacement(d, n_member_features);
    std::sort(features.begin(), features.end());
    for (std::size_t i = 0; i < n; ++i) {
      boot_rows[i] = rng.index(n);
      boot_targets[i] = targets[boot_rows[i]];
    }
    TreeOptions opt = base_opt;
    opt.seed = derive_seed(seed_, "bag-tree-" + std::to_string(t));
    reference_train_tree(fit.trees[t], x, boot_targets, {}, opt, boot_rows, features);
  }
}

void fit_boosted_trees(const ParamMap& params_, std::uint64_t seed_, const Matrix& x,
                       const std::vector<int>& y, ReferenceTreeFit& fit) {
  if (check_single_class(y, fit)) return;

  const auto n_estimators = static_cast<std::size_t>(
      std::clamp<long long>(params_.get_int("n_estimators", 40), 1, 500));
  double& learning_rate_ = fit.learning_rate;
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
  double& base_score_ = fit.base_score;
  base_score_ = std::log(prior / (1.0 - prior));

  std::vector<double> raw(n, base_score_);
  std::vector<double> grad(n), hess(n);
  for (std::size_t round = 0; round < n_estimators; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      const double p = sigmoid(raw[i]);
      grad[i] = (y[i] == 1 ? 1.0 : 0.0) - p;  // negative gradient
      hess[i] = std::max(1e-6, p * (1.0 - p));
    }
    TreeModel tree;
    opt.seed = derive_seed(seed_, "bst-" + std::to_string(round));
    reference_train_tree(tree, x, grad, hess, opt);
    if (tree.node_count() <= 1) break;  // no useful split left
    tree.predict_accumulate(x, learning_rate_, raw);
    fit.trees.push_back(std::move(tree));
  }
}

void fit_decision_jungle(const ParamMap& params_, std::uint64_t seed_, const Matrix& x,
                         const std::vector<int>& y, ReferenceTreeFit& fit) {
  if (check_single_class(y, fit)) return;

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

  const std::size_t n = x.rows();
  std::vector<double> targets(n);
  for (std::size_t i = 0; i < n; ++i) targets[i] = y[i] == 1 ? 1.0 : 0.0;

  auto& dags_ = fit.trees;
  dags_.resize(n_dags);
  std::vector<std::size_t> boot_rows(n);
  std::vector<double> boot_targets(n);
  for (std::size_t t = 0; t < n_dags; ++t) {
    opt.seed = derive_seed(seed_, "jungle-" + std::to_string(t));
    if (bootstrap) {
      Rng rng(derive_seed(opt.seed, "bootstrap"));
      for (std::size_t i = 0; i < n; ++i) {
        boot_rows[i] = rng.index(n);
        boot_targets[i] = targets[boot_rows[i]];
      }
      reference_train_tree(dags_[t], x, boot_targets, {}, opt, boot_rows);
    } else {
      reference_train_tree(dags_[t], x, targets, {}, opt);
    }
  }
}

}  // namespace

void reference_fit_tree(TreeModel& tree, const Matrix& x, std::span<const double> targets,
                        std::span<const double> hessians, const TreeOptions& options) {
  ReferenceEngine engine(x, targets, hessians, options);
  std::vector<TreeNode> nodes;
  build_cart(nodes, engine, x.rows(), targets, hessians, options);
  tree.set_nodes(std::move(nodes));
}

void reference_train_tree(TreeModel& tree, const Matrix& x,
                          std::span<const double> targets,
                          std::span<const double> hessians, const TreeOptions& options,
                          std::span<const std::size_t> rows,
                          std::span<const std::size_t> features) {
  if (rows.empty() && features.empty()) {
    reference_fit_tree(tree, x, targets, hessians, options);
    return;
  }
  Matrix view = rows.empty() ? x : x.select_rows(rows);
  if (!features.empty()) view = view.select_cols(features);
  reference_fit_tree(tree, view, targets, hessians, options);
}

ReferenceTreeFit reference_tree_classifier_fit(const std::string& name,
                                               const ParamMap& params, std::uint64_t seed,
                                               const Matrix& x, const std::vector<int>& y) {
  ReferenceTreeFit fit;
  fit.name = name;
  if (name == "decision_tree") {
    fit_decision_tree(params, seed, x, y, fit);
  } else if (name == "random_forest") {
    fit_random_forest(params, seed, x, y, fit);
  } else if (name == "bagging") {
    fit_bagging(params, seed, x, y, fit);
  } else if (name == "boosted_trees") {
    fit_boosted_trees(params, seed, x, y, fit);
  } else if (name == "decision_jungle") {
    fit_decision_jungle(params, seed, x, y, fit);
  } else {
    throw std::invalid_argument("reference_tree_classifier_fit: not a tree classifier: " +
                                name);
  }
  return fit;
}

std::string saved_bytes(const ReferenceTreeFit& fit) {
  std::ostringstream out;
  // Classifier::save_base, then the classifier's own save().
  out << (fit.single_class ? 1 : 0) << ' ' << fit.single_class_label << '\n';
  if (fit.name == "decision_tree") {
    // A single-class fit leaves DecisionTree's tree default-constructed.
    (fit.trees.empty() ? TreeModel() : fit.trees[0]).save(out);
    return out.str();
  }
  if (fit.name == "boosted_trees") {
    model_io::write_double(out, fit.learning_rate);
    model_io::write_double(out, fit.base_score);
  }
  model_io::write_int(out, static_cast<long long>(fit.trees.size()));
  for (std::size_t t = 0; t < fit.trees.size(); ++t) {
    if (fit.name == "bagging") {
      const auto& subset = fit.features[t];
      model_io::write_ivec(out, std::vector<int>(subset.begin(), subset.end()));
    }
    fit.trees[t].save(out);
  }
  return out.str();
}

}  // namespace mlaas::oracle
