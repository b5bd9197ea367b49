// Gradient-boosted decision trees with logistic loss (Friedman 2002) —
// Microsoft's "Boosted Decision Tree" and the local library's
// GradientBoostingClassifier.
//
// Each round fits an MSE regression tree to the negative gradient of the
// logistic loss; leaves take Newton values sum(g) / (sum(h) + eps).
//
// Parameters (Table 1, Microsoft BST):
//   n_estimators            # of trees constructed        (default 40)
//   learning_rate                                          (default 0.2)
//   max_leaves              max # of leaves per tree       (default 20)
//   min_instances_per_leaf                                 (default 10)
//   criterion / max_features accepted for local-library grid parity
#pragma once

#include "ml/classifier.h"
#include "ml/tree/flat_forest.h"
#include "ml/tree/tree_model.h"

namespace mlaas {

class BoostedDecisionTrees final : public Classifier {
 public:
  explicit BoostedDecisionTrees(const ParamMap& params = {}, std::uint64_t seed = 0);

  void fit(const Matrix& x, const std::vector<int>& y) override;
  void predict_score_into(const Matrix& x, std::vector<double>& out) const override;
  std::string name() const override { return "boosted_trees"; }
  bool is_linear() const override { return false; }

  void save(std::ostream& out) const override;
  void load(std::istream& in) override;

  std::size_t tree_count() const { return trees_.size(); }

 private:
  ParamMap params_;
  std::uint64_t seed_;
  double learning_rate_ = 0.2;
  double base_score_ = 0.0;  // log-odds prior
  std::vector<TreeModel> trees_;
  FlatForest flat_;  // inference layout, rebuilt by fit()/load()
};

}  // namespace mlaas
