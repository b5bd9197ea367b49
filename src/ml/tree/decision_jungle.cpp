#include "ml/tree/decision_jungle.h"

#include "ml/serialize.h"

#include <algorithm>
#include <cmath>

#include "ml/tree/trainer.h"
#include "util/rng.h"

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

  const std::size_t n = x.rows();
  std::vector<double> targets(n);
  for (std::size_t i = 0; i < n; ++i) targets[i] = y[i] == 1 ? 1.0 : 0.0;

  dags_.resize(n_dags);
  std::vector<std::size_t> boot_rows(n);
  std::vector<double> boot_targets(n);
  TreeWorkspace workspace;  // column cache + presorted orders shared by all DAGs
  for (std::size_t t = 0; t < n_dags; ++t) {
    opt.seed = derive_seed(seed_, "jungle-" + std::to_string(t));
    if (bootstrap) {
      Rng rng(derive_seed(opt.seed, "bootstrap"));
      for (std::size_t i = 0; i < n; ++i) {
        boot_rows[i] = rng.index(n);
        boot_targets[i] = targets[boot_rows[i]];
      }
      train_tree(dags_[t], workspace, x, boot_targets, {}, opt, boot_rows);
    } else {
      train_tree(dags_[t], workspace, x, targets, {}, opt);
    }
  }
  rebuild_flat();
}

void DecisionJungle::rebuild_flat() {
  flat_.clear();
  for (const auto& dag : dags_) flat_.add_tree(dag);
}

std::vector<double> DecisionJungle::predict_score(const Matrix& x) const {
  std::vector<double> out;
  predict_score_into(x, out);
  return out;
}

void DecisionJungle::predict_score_into(const Matrix& x, std::vector<double>& out) const {
  if (fill_single_class(x.rows(), out)) return;
  out.assign(x.rows(), 0.0);
  flat_.predict_accumulate(x, 1.0, out);
  const double inv = 1.0 / static_cast<double>(std::max<std::size_t>(1, dags_.size()));
  for (double& v : out) v *= inv;
}

void DecisionJungle::save(std::ostream& out) const {
  save_base(out);
  model_io::write_int(out, static_cast<long long>(dags_.size()));
  for (const auto& dag : dags_) dag.save(out);
}

void DecisionJungle::load(std::istream& in) {
  load_base(in);
  const std::size_t count = model_io::read_count(in, "decision_jungle dag count");
  dags_.clear();
  for (std::size_t t = 0; t < count; ++t) dags_.emplace_back().load(in);
  rebuild_flat();
}

}  // namespace mlaas
