// Bagged decision trees (Breiman 1996) — BigML's "Bagging" and the local
// library's BaggingClassifier.
//
// Unlike RandomForest, each member tree sees ALL features at every split but
// may be restricted to a random feature SUBSET for the whole tree
// (max_features as a fraction), the sklearn Bagging semantics.
//
// Parameters:
//   n_estimators    (default 10)
//   max_features    fraction of features per member in (0,1]; default 1.0
//   node_threshold  per-tree node budget (BigML)
//   ordering        "standard" | "random" (BigML)
#pragma once

#include "ml/classifier.h"
#include "ml/tree/flat_forest.h"
#include "ml/tree/tree_model.h"

namespace mlaas {

class BaggedTrees final : public Classifier {
 public:
  explicit BaggedTrees(const ParamMap& params = {}, std::uint64_t seed = 0);

  void fit(const Matrix& x, const std::vector<int>& y) override;
  void predict_score_into(const Matrix& x, std::vector<double>& out) const override;
  std::string name() const override { return "bagging"; }
  bool is_linear() const override { return false; }

  void save(std::ostream& out) const override;
  void load(std::istream& in) override;

  std::size_t tree_count() const { return members_.size(); }

 private:
  struct Member {
    TreeModel tree;
    std::vector<std::size_t> features;  // column subset the tree was fit on
  };

  void rebuild_flat();

  ParamMap params_;
  std::uint64_t seed_;
  std::vector<Member> members_;
  FlatForest flat_;  // inference layout (feature subsets baked in), rebuilt by fit()/load()
};

}  // namespace mlaas
