// Decision jungle (Shotton et al. 2013) — Microsoft's "Decision Jungle".
//
// A decision jungle is an ensemble of rooted decision DAGs whose per-level
// width is bounded, trading accuracy for a much smaller memory footprint.
// This implementation approximates each DAG with a width-budgeted tree: the
// breadth-first tree builder only splits the `max_width` highest-impurity
// nodes of each level (see TreeOptions::max_width), which reproduces the
// jungle's width-limited capacity without the node-merging optimization.
// The substitution is documented in DESIGN.md.
//
// Parameters (Table 1):
//   n_dags              # of DAGs                       (default 8)
//   max_depth           max depth of the DAGs           (default 16)
//   max_width           max width of the DAGs           (default 32)
//   optimization_steps  per-layer optimization budget; mapped to the number
//                       of random thresholds evaluated per feature
//   resampling          "bagging" | "replicate"
#pragma once

#include "ml/classifier.h"
#include "ml/tree/flat_forest.h"
#include "ml/tree/tree_model.h"

namespace mlaas {

class DecisionJungle final : public Classifier {
 public:
  explicit DecisionJungle(const ParamMap& params = {}, std::uint64_t seed = 0);

  void fit(const Matrix& x, const std::vector<int>& y) override;
  std::vector<double> predict_score(const Matrix& x) const override;
  void predict_score_into(const Matrix& x, std::vector<double>& out) const override;
  std::string name() const override { return "decision_jungle"; }
  bool is_linear() const override { return false; }

  void save(std::ostream& out) const override;
  void load(std::istream& in) override;

 private:
  void rebuild_flat();

  ParamMap params_;
  std::uint64_t seed_;
  std::vector<TreeModel> dags_;
  FlatForest flat_;  // inference layout, rebuilt by fit()/load()
};

}  // namespace mlaas
