// Random forest (Breiman 2001).
//
// Parameters (union of BigML / Microsoft / local offerings, Table 1):
//   n_estimators        number of trees            (default 10)
//   max_depth           per-tree depth cap         (default 0 = unlimited)
//   max_features        "sqrt" (default) | "log2" | "all" | integer
//   resampling          "bagging" (bootstrap, default) | "replicate" (none)
//   random_splits       Microsoft's "# of random splits per node": when > 0
//                       each feature is evaluated at this many random
//                       thresholds (extra-trees style)
//   min_samples_leaf                               (default 1)
//   node_threshold      per-tree node budget       (default 0)
#pragma once

#include "ml/classifier.h"
#include "ml/tree/flat_forest.h"
#include "ml/tree/tree_model.h"

namespace mlaas {

class RandomForest final : public Classifier {
 public:
  explicit RandomForest(const ParamMap& params = {}, std::uint64_t seed = 0);

  void fit(const Matrix& x, const std::vector<int>& y) override;
  std::vector<double> predict_score(const Matrix& x) const override;
  void predict_score_into(const Matrix& x, std::vector<double>& out) const override;
  std::string name() const override { return "random_forest"; }
  bool is_linear() const override { return false; }

  void save(std::ostream& out) const override;
  void load(std::istream& in) override;

  std::size_t tree_count() const { return trees_.size(); }

 private:
  void rebuild_flat();

  ParamMap params_;
  std::uint64_t seed_;
  std::vector<TreeModel> trees_;
  FlatForest flat_;  // inference layout, rebuilt by fit()/load()
};

}  // namespace mlaas
