#include "tests/oracle/predict.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numbers>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "linalg/vector_ops.h"
#include "ml/neural/mlp.h"
#include "ml/serialize.h"
#include "ml/tree/tree_model.h"

namespace mlaas::oracle {

namespace {

enum class Family {
  kLinear,       // logistic_regression, lda, linear_svm, averaged_perceptron
  kBayesPoint,   // bayes_point_machine: the linear score, margins scaled by 4
  kNaiveBayes,
  kKnn,
  kMlp,
  kRbfSvm,
  kDecisionTree,
  kAveraged,     // random_forest, decision_jungle: mean of the trees
  kBagging,      // mean of the members, each through its feature map
  kBoosted,      // boosted_trees: sigmoid(base + rate * sum of the trees)
};

Family family_of(const std::string& name) {
  if (name == "logistic_regression" || name == "lda" || name == "linear_svm" ||
      name == "averaged_perceptron") {
    return Family::kLinear;
  }
  if (name == "bayes_point_machine") return Family::kBayesPoint;
  if (name == "naive_bayes") return Family::kNaiveBayes;
  if (name == "knn") return Family::kKnn;
  if (name == "mlp") return Family::kMlp;
  if (name == "rbf_svm") return Family::kRbfSvm;
  if (name == "decision_tree") return Family::kDecisionTree;
  if (name == "random_forest" || name == "decision_jungle") return Family::kAveraged;
  if (name == "bagging") return Family::kBagging;
  if (name == "boosted_trees") return Family::kBoosted;
  throw std::invalid_argument("ReferencePredictor: unknown classifier " + name);
}

MlpActivation parse_activation(const std::string& name) {
  if (name == "relu") return MlpActivation::kRelu;
  if (name == "tanh") return MlpActivation::kTanh;
  if (name == "logistic") return MlpActivation::kLogistic;
  throw std::runtime_error("ReferencePredictor: unknown mlp activation " + name);
}

// The MLP's per-layer activation, as its predict loop applies it.
void activate_layer(std::span<double> z, MlpActivation kind) {
  switch (kind) {
    case MlpActivation::kRelu:
      for (double& v : z) v = v > 0 ? v : 0.0;
      return;
    case MlpActivation::kTanh:
      for (double& v : z) v = std::tanh(v);
      return;
    case MlpActivation::kLogistic:
      break;
  }
  for (double& v : z) v = sigmoid(v);
}

// TreeModel::predict's per-row walk.
double predict_one(const std::vector<TreeNode>& nodes_, std::span<const double> row) {
  if (nodes_.empty()) return 0.0;
  std::size_t node = 0;
  while (nodes_[node].feature >= 0) {
    node = static_cast<std::size_t>(
        row[static_cast<std::size_t>(nodes_[node].feature)] <= nodes_[node].threshold
            ? nodes_[node].left
            : nodes_[node].right);
  }
  return nodes_[node].value;
}

std::vector<TreeModel> read_trees(std::istream& in, const char* what) {
  std::vector<TreeModel> trees(model_io::read_count(in, what));
  for (TreeModel& tree : trees) tree.load(in);
  return trees;
}

}  // namespace

void reference_tree_accumulate(const TreeModel& tree, const Matrix& x, double scale,
                               std::span<double> out,
                               std::span<const std::size_t> feature_map) {
  const std::vector<TreeNode>& nodes_ = tree.nodes();
  constexpr std::size_t kBlock = 256;
  const std::size_t n = x.rows();
  if (nodes_.empty()) {
    // Preserve the exact arithmetic of accumulating a zero prediction.
    for (std::size_t r = 0; r < n; ++r) out[r] += scale * 0.0;
    return;
  }
  const TreeNode* nodes = nodes_.data();
  const bool remap = !feature_map.empty();
  for (std::size_t block = 0; block < n; block += kBlock) {
    const std::size_t block_end = std::min(n, block + kBlock);
    for (std::size_t r = block; r < block_end; ++r) {
      const auto row = x.row(r);
      const TreeNode* node = nodes;
      while (node->feature >= 0) {
        const auto f = static_cast<std::size_t>(node->feature);
        const double v = row[remap ? feature_map[f] : f];
        node = nodes + (v <= node->threshold ? node->left : node->right);
      }
      out[r] += scale * node->value;
    }
  }
}

struct ReferencePredictor::State {
  Family family = Family::kLinear;
  bool single_class_ = false;
  int single_class_label_ = 0;

  // Linear models and the Bayes point machine.
  std::vector<double> w_;
  double b_ = 0.0;
  // naive_bayes.
  std::vector<double> mean_[2], var_[2];
  double log_prior_[2] = {0.0, 0.0};
  // knn.
  long long n_neighbors_ = 0;
  bool distance_weighted_ = false;
  double p_ = 2.0;
  Matrix train_x_;
  std::vector<int> train_y_;
  std::vector<double> train_sq_norms_;
  // mlp and rbf_svm.
  MlpActivation activation_ = MlpActivation::kRelu;
  std::vector<Matrix> weights_;
  std::vector<std::vector<double>> biases_;
  double gamma_ = 0.0;
  std::vector<double> alpha_;
  Matrix support_x_;
  std::vector<double> feat_mean_, feat_std_;
  // The tree family.
  std::vector<TreeModel> trees_;
  std::vector<std::vector<std::size_t>> features_;  // bagging member column subsets
  double learning_rate_ = 0.0;
  double base_score_ = 0.0;

  void read(std::istream& in);
  double single_class_score() const { return single_class_label_ == 1 ? 1.0 : 0.0; }
  double vote(const std::vector<std::pair<double, std::size_t>>& dist, std::size_t k) const;
  void score(const Matrix& x, std::vector<double>& out) const;
};

void ReferencePredictor::State::read(std::istream& in) {
  int flag = 0;
  in >> flag >> single_class_label_;
  model_io::check(in, "classifier base state");
  single_class_ = flag != 0;
  switch (family) {
    case Family::kLinear:
    case Family::kBayesPoint:
      w_ = model_io::read_vec(in);
      b_ = model_io::read_double(in);
      break;
    case Family::kNaiveBayes:
      for (int cls = 0; cls < 2; ++cls) {
        mean_[cls] = model_io::read_vec(in);
        var_[cls] = model_io::read_vec(in);
        log_prior_[cls] = model_io::read_double(in);
      }
      break;
    case Family::kKnn:
      n_neighbors_ = model_io::read_int(in);
      distance_weighted_ = model_io::read_int(in) != 0;
      p_ = model_io::read_double(in);
      train_x_ = model_io::read_matrix(in);
      train_y_ = model_io::read_ivec(in);
      if (p_ == 2.0) {
        train_sq_norms_.resize(train_x_.rows());
        for (std::size_t i = 0; i < train_x_.rows(); ++i) {
          const auto row = train_x_.row(i);
          train_sq_norms_[i] = dot(row, row);
        }
      }
      break;
    case Family::kMlp: {
      activation_ = parse_activation(model_io::read_string(in));
      const std::size_t n_layers = model_io::read_count(in, "mlp layer count");
      for (std::size_t l = 0; l < n_layers; ++l) {
        weights_.push_back(model_io::read_matrix(in));
        biases_.push_back(model_io::read_vec(in));
      }
      feat_mean_ = model_io::read_vec(in);
      feat_std_ = model_io::read_vec(in);
      break;
    }
    case Family::kRbfSvm:
      gamma_ = model_io::read_double(in);
      alpha_ = model_io::read_vec(in);
      support_x_ = model_io::read_matrix(in);
      feat_mean_ = model_io::read_vec(in);
      feat_std_ = model_io::read_vec(in);
      break;
    case Family::kDecisionTree:
      trees_.emplace_back().load(in);
      break;
    case Family::kAveraged:
      trees_ = read_trees(in, "tree count");
      break;
    case Family::kBagging: {
      const std::size_t count = model_io::read_count(in, "bagging member count");
      for (std::size_t m = 0; m < count; ++m) {
        const auto features = model_io::read_ivec(in);
        features_.emplace_back(features.begin(), features.end());
        trees_.emplace_back().load(in);
      }
      break;
    }
    case Family::kBoosted:
      learning_rate_ = model_io::read_double(in);
      base_score_ = model_io::read_double(in);
      trees_ = read_trees(in, "boosted_trees tree count");
      break;
  }
  if (!(in >> std::ws).eof()) {
    throw std::runtime_error("ReferencePredictor: saved state has unread trailing bytes");
  }
}

double ReferencePredictor::State::vote(
    const std::vector<std::pair<double, std::size_t>>& dist, std::size_t k) const {
  double pos = 0.0, total = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    const double w = distance_weighted_ ? 1.0 / (dist[j].first + 1e-9) : 1.0;
    total += w;
    if (train_y_[dist[j].second] == 1) pos += w;
  }
  return total > 0 ? pos / total : 0.5;
}

void ReferencePredictor::State::score(const Matrix& x, std::vector<double>& out) const {
  if (single_class_) {
    out.assign(x.rows(), single_class_score());
    return;
  }
  switch (family) {
    case Family::kLinear: {
      const auto z = x.multiply(w_);
      out.resize(x.rows());
      for (std::size_t i = 0; i < x.rows(); ++i) out[i] = sigmoid(z[i] + b_);
      return;
    }
    case Family::kBayesPoint: {
      const auto z = x.multiply(w_);
      out.resize(x.rows());
      // Scale margins before the sigmoid so the committee average (unit norm)
      // still produces confident scores.
      for (std::size_t i = 0; i < x.rows(); ++i) out[i] = sigmoid(4.0 * (z[i] + b_));
      return;
    }
    case Family::kNaiveBayes: {
      out.assign(x.rows(), single_class_score());
      const std::size_t d = x.cols();
      for (std::size_t r = 0; r < x.rows(); ++r) {
        double log_like[2];
        for (int cls = 0; cls < 2; ++cls) {
          double ll = log_prior_[cls];
          for (std::size_t c = 0; c < d; ++c) {
            const double dv = x(r, c) - mean_[cls][c];
            ll += -0.5 * std::log(2.0 * std::numbers::pi * var_[cls][c]) -
                  dv * dv / (2.0 * var_[cls][c]);
          }
          log_like[cls] = ll;
        }
        out[r] = sigmoid(log_like[1] - log_like[0]);
      }
      return;
    }
    case Family::kKnn: {
      const std::size_t n_train = train_x_.rows();
      const std::size_t k =
          std::min<std::size_t>(static_cast<std::size_t>(n_neighbors_), n_train);
      const bool euclidean = p_ == 2.0 && train_sq_norms_.size() == n_train;
      out.resize(x.rows());
      std::vector<std::pair<double, std::size_t>> dist(n_train);
      for (std::size_t q = 0; q < x.rows(); ++q) {
        const auto query = x.row(q);
        if (euclidean) {
          const double query_sq = dot(query, query);
          for (std::size_t i = 0; i < n_train; ++i) {
            const double d2 =
                query_sq - 2.0 * dot(query, train_x_.row(i)) + train_sq_norms_[i];
            dist[i] = {std::sqrt(std::max(0.0, d2)), i};
          }
        } else {
          for (std::size_t i = 0; i < n_train; ++i) {
            dist[i] = {minkowski_distance(query, train_x_.row(i), p_), i};
          }
        }
        std::partial_sort(dist.begin(), dist.begin() + static_cast<std::ptrdiff_t>(k),
                          dist.end());
        out[q] = vote(dist, k);
      }
      return;
    }
    case Family::kMlp: {
      const std::size_t n_layers = weights_.size();
      out.resize(x.rows());
      std::vector<double> act;
      for (std::size_t r = 0; r < x.rows(); ++r) {
        act.assign(x.row(r).begin(), x.row(r).end());
        for (std::size_t c = 0; c < act.size(); ++c) {
          act[c] = (act[c] - feat_mean_[c]) / feat_std_[c];
        }
        for (std::size_t l = 0; l < n_layers; ++l) {
          auto next = weights_[l].multiply(act);
          for (std::size_t j = 0; j < next.size(); ++j) next[j] += biases_[l][j];
          activate_layer(next, l + 1 == n_layers ? MlpActivation::kLogistic : activation_);
          act = std::move(next);
        }
        out[r] = act[0];
      }
      return;
    }
    case Family::kRbfSvm: {
      out.resize(x.rows());
      std::vector<double> row(x.cols());
      for (std::size_t r = 0; r < x.rows(); ++r) {
        for (std::size_t c = 0; c < x.cols(); ++c) {
          row[c] = (x(r, c) - feat_mean_[c]) / feat_std_[c];
        }
        double f = 0.0;
        for (std::size_t i = 0; i < support_x_.rows(); ++i) {
          if (alpha_[i] != 0.0) {
            f += alpha_[i] * std::exp(-gamma_ * squared_distance(row, support_x_.row(i)));
          }
        }
        out[r] = sigmoid(f);
      }
      return;
    }
    case Family::kDecisionTree:
      out.resize(x.rows());
      for (std::size_t r = 0; r < x.rows(); ++r) out[r] = predict_one(trees_[0].nodes(), x.row(r));
      return;
    case Family::kAveraged:
    case Family::kBagging: {
      out.assign(x.rows(), 0.0);
      for (std::size_t t = 0; t < trees_.size(); ++t) {
        reference_tree_accumulate(
            trees_[t], x, 1.0, out,
            features_.empty() ? std::span<const std::size_t>{}
                              : std::span<const std::size_t>(features_[t]));
      }
      const double inv = 1.0 / static_cast<double>(std::max<std::size_t>(1, trees_.size()));
      for (double& v : out) v *= inv;
      return;
    }
    case Family::kBoosted: {
      out.resize(x.rows());
      std::vector<double> raw(x.rows(), base_score_);
      for (const auto& tree : trees_) reference_tree_accumulate(tree, x, learning_rate_, raw);
      for (std::size_t i = 0; i < raw.size(); ++i) out[i] = sigmoid(raw[i]);
      return;
    }
  }
}

ReferencePredictor::ReferencePredictor(const Classifier& classifier)
    : ReferencePredictor(classifier.name(), [&] {
        std::ostringstream out;
        classifier.save(out);
        return out.str();
      }()) {}

ReferencePredictor::ReferencePredictor(const std::string& name, const std::string& saved) {
  auto state = std::make_unique<State>();
  state->family = family_of(name);
  std::istringstream in(saved);
  state->read(in);
  state_ = std::move(state);
}

ReferencePredictor::~ReferencePredictor() = default;

std::vector<double> ReferencePredictor::predict_score(const Matrix& x) const {
  std::vector<double> out;
  state_->score(x, out);
  return out;
}

std::vector<int> ReferencePredictor::predict(const Matrix& x) const {
  const auto scores = predict_score(x);
  std::vector<int> labels(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) labels[i] = scores[i] > 0.5 ? 1 : 0;
  return labels;
}

}  // namespace mlaas::oracle
