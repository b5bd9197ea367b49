#include "ml/neural/mlp.h"

#include "ml/serialize.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

#include "linalg/dense_kernels.h"
#include "linalg/vector_ops.h"
#include "ml/feature/scalers.h"
#include "util/rng.h"

namespace mlaas {

namespace {

// Indexed by MlpActivation.
constexpr const char* kActivationNames[] = {"relu", "tanh", "logistic"};

std::optional<MlpActivation> parse_activation(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kActivationNames); ++i) {
    if (name == kActivationNames[i]) return static_cast<MlpActivation>(i);
  }
  return std::nullopt;
}

// Applies the activation to one layer's outputs, dispatching once per layer
// rather than per neuron.
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

double activate_grad(double a, MlpActivation kind) {
  // Gradients expressed in terms of the activation output a.
  switch (kind) {
    case MlpActivation::kRelu: return a > 0 ? 1.0 : 0.0;
    case MlpActivation::kTanh: return 1.0 - a * a;
    case MlpActivation::kLogistic: break;
  }
  return a * (1.0 - a);
}

}  // namespace

MultiLayerPerceptron::MultiLayerPerceptron(const ParamMap& params, std::uint64_t seed)
    : seed_(seed) {
  const std::string activation = params.get_string("activation", "relu");
  const auto kind = parse_activation(activation);
  if (!kind) {
    throw std::invalid_argument("mlp: unknown activation " + activation +
                                " (expected relu, tanh or logistic)");
  }
  activation_ = *kind;
  adam_ = params.get_string("solver", "adam") != "sgd";
  alpha_ = std::max(0.0, params.get_double("alpha", 1e-4));
  hidden_ = static_cast<std::size_t>(std::clamp<long long>(params.get_int("hidden", 12), 2, 256));
  layers_ = static_cast<int>(std::clamp<long long>(params.get_int("layers", 1), 1, 2));
  max_iter_ = std::clamp<long long>(params.get_int("max_iter", 40), 1, 400);
}

void MultiLayerPerceptron::fit(const Matrix& x, const std::vector<int>& y) {
  weights_.clear();
  biases_.clear();
  if (check_single_class(y)) return;

  StandardScaler scaler;
  scaler.fit(x, y);
  const Matrix xs = scaler.transform(x);
  feat_mean_ = scaler.means();
  feat_std_ = scaler.stds();
  const std::size_t n = xs.rows();
  const std::size_t d = xs.cols();

  // Layer sizes: d -> hidden [-> hidden] -> 1.
  std::vector<std::size_t> sizes{d};
  for (int l = 0; l < layers_; ++l) sizes.push_back(hidden_);
  sizes.push_back(1);
  const std::size_t n_layers = sizes.size() - 1;

  Rng rng(derive_seed(seed_, "mlp"));
  weights_.resize(n_layers);
  biases_.resize(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l) {
    weights_[l] = Matrix(sizes[l + 1], sizes[l]);
    biases_[l].assign(sizes[l + 1], 0.0);
    const double scale = std::sqrt(2.0 / static_cast<double>(sizes[l] + sizes[l + 1]));
    for (double& w : weights_[l].data()) w = rng.normal(0.0, scale);
  }

  // Adam / momentum state.
  std::vector<Matrix> m_w(n_layers), v_w(n_layers);
  std::vector<std::vector<double>> m_b(n_layers), v_b(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l) {
    m_w[l] = Matrix(sizes[l + 1], sizes[l]);
    v_w[l] = Matrix(sizes[l + 1], sizes[l]);
    m_b[l].assign(sizes[l + 1], 0.0);
    v_b[l].assign(sizes[l + 1], 0.0);
  }
  const double lr = adam_ ? 0.01 : 0.05;
  const double alpha = alpha_;  // a local: weight stores cannot alias it
  const double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  long long step = 0;

  // act[l] is layer l's input (act[0] the sample) and act[l + 1] its
  // output; delta[l] is the loss gradient at layer l's pre-activation.
  // Sized once, overwritten every sample.
  std::vector<std::vector<double>> act(n_layers + 1);
  std::vector<std::vector<double>> delta(n_layers);
  for (std::size_t l = 0; l <= n_layers; ++l) act[l].resize(sizes[l]);
  for (std::size_t l = 0; l < n_layers; ++l) delta[l].resize(sizes[l + 1]);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;

  for (long long epoch = 0; epoch < max_iter_; ++epoch) {
    rng.shuffle(order);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = order[k];
      // Forward.
      const auto sample = xs.row(i);
      std::copy(sample.begin(), sample.end(), act[0].begin());
      for (std::size_t l = 0; l < n_layers; ++l) {
        dense_layer_into(weights_[l], act[l], biases_[l], act[l + 1]);
        activate_layer(act[l + 1], l + 1 == n_layers ? MlpActivation::kLogistic : activation_);
      }
      // Backward.  delta[l] = W[l+1]^T delta[l+1], accumulated row by row
      // from 0.0 in the same order as the W^T * v helper of the fit oracle
      // (tests/oracle/mlp_fit.cpp).
      const double target = y[i] == 1 ? 1.0 : 0.0;
      delta[n_layers - 1][0] = act[n_layers][0] - target;
      for (std::size_t l = n_layers - 1; l-- > 0;) {
        const Matrix& w = weights_[l + 1];
        std::vector<double>& dl = delta[l];
        std::fill(dl.begin(), dl.end(), 0.0);
        for (std::size_t r = 0; r < w.rows(); ++r) {
          const double* p = w.row(r).data();
          const double vr = delta[l + 1][r];
          for (std::size_t c = 0; c < dl.size(); ++c) dl[c] += p[c] * vr;
        }
        for (std::size_t j = 0; j < dl.size(); ++j) {
          dl[j] *= activate_grad(act[l + 1][j], activation_);
        }
      }
      // Update: one branch-free loop per solver over each weight row, so
      // the per-weight work vectorises (mlp.cpp is built with
      // -fno-math-errno, letting sqrt compile to sqrtpd; see DESIGN.md
      // "Training kernels").  Adam bias-correction factors are hoisted per
      // step — they depend only on the step counter, not on the weight.
      ++step;
      if (adam_) {
        const double bc1 = 1.0 / (1.0 - std::pow(beta1, static_cast<double>(step)));
        const double bc2 = 1.0 / (1.0 - std::pow(beta2, static_cast<double>(step)));
        for (std::size_t l = 0; l < n_layers; ++l) {
          const std::size_t cols = weights_[l].cols();
          const double* a = act[l].data();
          for (std::size_t o = 0; o < weights_[l].rows(); ++o) {
            const double db = delta[l][o];
            double* w = weights_[l].row(o).data();
            double* m = m_w[l].row(o).data();
            double* v = v_w[l].row(o).data();
            for (std::size_t in = 0; in < cols; ++in) {
              const double g = db * a[in] + alpha * w[in];
              m[in] = beta1 * m[in] + (1 - beta1) * g;
              v[in] = beta2 * v[in] + (1 - beta2) * g * g;
              w[in] -= lr * (m[in] * bc1) / (std::sqrt(v[in] * bc2) + eps);
            }
            double& mb = m_b[l][o];
            double& vb = v_b[l][o];
            mb = beta1 * mb + (1 - beta1) * db;
            vb = beta2 * vb + (1 - beta2) * db * db;
            biases_[l][o] -= lr * (mb * bc1) / (std::sqrt(vb * bc2) + eps);
          }
        }
      } else {
        const double sgd_lr = lr / (1.0 + static_cast<double>(epoch) / 10.0);
        for (std::size_t l = 0; l < n_layers; ++l) {
          const std::size_t cols = weights_[l].cols();
          const double* a = act[l].data();
          for (std::size_t o = 0; o < weights_[l].rows(); ++o) {
            const double db = delta[l][o];
            double* w = weights_[l].row(o).data();
            double* m = m_w[l].row(o).data();
            for (std::size_t in = 0; in < cols; ++in) {
              const double g = db * a[in] + alpha * w[in];
              m[in] = 0.9 * m[in] + g;
              w[in] -= sgd_lr * m[in];
            }
            double& mb = m_b[l][o];
            mb = 0.9 * mb + db;
            biases_[l][o] -= sgd_lr * mb;
          }
        }
      }
    }
  }
}

void MultiLayerPerceptron::predict_score_into(const Matrix& x,
                                              std::vector<double>& out) const {
  if (fill_single_class(x.rows(), out)) return;
  const std::size_t n_layers = weights_.size();
  out.resize(x.rows());
  // Double-buffer the activations — same math, no per-layer allocation.
  // dense_layer_into is bit-identical to multiply + bias.
  thread_local std::vector<double> act;
  thread_local std::vector<double> next;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto row = x.row(r);
    act.resize(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      act[c] = (row[c] - feat_mean_[c]) / feat_std_[c];
    }
    for (std::size_t l = 0; l < n_layers; ++l) {
      next.resize(weights_[l].rows());
      dense_layer_into(weights_[l], act, biases_[l], next);
      activate_layer(next, l + 1 == n_layers ? MlpActivation::kLogistic : activation_);
      std::swap(act, next);
    }
    out[r] = act[0];
  }
}


void MultiLayerPerceptron::save(std::ostream& out) const {
  save_base(out);
  model_io::write_string(out, kActivationNames[static_cast<std::size_t>(activation_)]);
  model_io::write_int(out, static_cast<long long>(weights_.size()));
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    model_io::write_matrix(out, weights_[l]);
    model_io::write_vec(out, biases_[l]);
  }
  model_io::write_vec(out, feat_mean_);
  model_io::write_vec(out, feat_std_);
}

void MultiLayerPerceptron::load(std::istream& in) {
  load_base(in);
  const std::string activation = model_io::read_string(in);
  const auto kind = parse_activation(activation);
  if (!kind) throw std::runtime_error("load_model: mlp has unknown activation " + activation);
  activation_ = *kind;
  const long long n_layers = model_io::read_int(in);
  if (n_layers < 0) throw std::runtime_error("load_model: mlp has a negative layer count");
  weights_.clear();
  biases_.clear();
  for (long long l = 0; l < n_layers; ++l) {
    weights_.push_back(model_io::read_matrix(in));
    biases_.push_back(model_io::read_vec(in));
  }
  feat_mean_ = model_io::read_vec(in);
  feat_std_ = model_io::read_vec(in);
  // A single-class model predicts without its network (fit leaves none).
  if (single_class()) return;
  if (weights_.empty()) throw std::runtime_error("load_model: mlp has no layers");
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    if (l > 0 && weights_[l].cols() != weights_[l - 1].rows()) {
      throw std::runtime_error("load_model: mlp layer " + std::to_string(l) +
                               " input width does not match the previous layer");
    }
    if (biases_[l].size() != weights_[l].rows()) {
      throw std::runtime_error("load_model: mlp layer " + std::to_string(l) +
                               " bias size does not match its weights");
    }
  }
  if (weights_.back().rows() != 1) {
    throw std::runtime_error("load_model: mlp output layer must have one unit");
  }
  if (feat_mean_.size() != weights_[0].cols() || feat_std_.size() != weights_[0].cols()) {
    throw std::runtime_error(
        "load_model: mlp feature mean/std size does not match the input width");
  }
}

}  // namespace mlaas
