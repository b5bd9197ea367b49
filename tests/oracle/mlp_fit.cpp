#include "tests/oracle/mlp_fit.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>
#include <sstream>

#include "linalg/vector_ops.h"
#include "ml/classifier.h"
#include "ml/feature/scalers.h"
#include "ml/serialize.h"
#include "util/rng.h"

namespace mlaas::oracle {

namespace {

double activate(double z, const std::string& kind) {
  if (kind == "relu") return z > 0 ? z : 0.0;
  if (kind == "tanh") return std::tanh(z);
  return sigmoid(z);  // logistic
}

double activate_grad(double a, const std::string& kind) {
  // Gradients expressed in terms of the activation output a.
  if (kind == "relu") return a > 0 ? 1.0 : 0.0;
  if (kind == "tanh") return 1.0 - a * a;
  return a * (1.0 - a);
}

// m^T * v (v.size() == m.rows()), accumulated row by row from 0.0: the
// backward pass's order, which MultiLayerPerceptron::fit reproduces inline.
std::vector<double> transpose_multiply(const Matrix& m, std::span<const double> v) {
  assert(v.size() == m.rows());
  std::vector<double> out(m.cols(), 0.0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const double* p = m.row(r).data();
    const double vr = v[r];
    for (std::size_t c = 0; c < m.cols(); ++c) out[c] += p[c] * vr;
  }
  return out;
}

}  // namespace

std::string reference_mlp_model_bytes(const ParamMap& params, std::uint64_t seed_,
                                      const Matrix& x, const std::vector<int>& y) {
  // MultiLayerPerceptron's constructor.
  const std::string activation_ = params.get_string("activation", "relu");
  const bool adam_ = params.get_string("solver", "adam") != "sgd";
  const double alpha_ = std::max(0.0, params.get_double("alpha", 1e-4));
  const auto hidden_ =
      static_cast<std::size_t>(std::clamp<long long>(params.get_int("hidden", 12), 2, 256));
  const auto layers_ =
      static_cast<int>(std::clamp<long long>(params.get_int("layers", 1), 1, 2));
  const long long max_iter_ = std::clamp<long long>(params.get_int("max_iter", 40), 1, 400);

  std::vector<Matrix> weights_;
  std::vector<std::vector<double>> biases_;
  std::vector<double> feat_mean_, feat_std_;

  // Classifier::check_single_class.
  const std::size_t pos = count_positive(y);
  const bool single_class = y.empty() || pos == 0 || pos == y.size();

  if (!single_class) {
    // The pre-rewrite MultiLayerPerceptron::fit body, verbatim.
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
    const double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
    long long step = 0;

    std::vector<std::vector<double>> act(n_layers + 1);
    std::vector<std::vector<double>> delta(n_layers);
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;

    for (long long epoch = 0; epoch < max_iter_; ++epoch) {
      rng.shuffle(order);
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = order[k];
        // Forward.
        act[0].assign(xs.row(i).begin(), xs.row(i).end());
        for (std::size_t l = 0; l < n_layers; ++l) {
          act[l + 1] = weights_[l].multiply(act[l]);
          for (std::size_t j = 0; j < act[l + 1].size(); ++j) {
            const double z = act[l + 1][j] + biases_[l][j];
            act[l + 1][j] = l + 1 == n_layers ? sigmoid(z) : activate(z, activation_);
          }
        }
        // Backward.
        const double target = y[i] == 1 ? 1.0 : 0.0;
        delta[n_layers - 1] = {act[n_layers][0] - target};
        for (std::size_t l = n_layers - 1; l-- > 0;) {
          delta[l] = transpose_multiply(weights_[l + 1], delta[l + 1]);
          for (std::size_t j = 0; j < delta[l].size(); ++j) {
            delta[l][j] *= activate_grad(act[l + 1][j], activation_);
          }
        }
        // Update.  Adam bias-correction factors are hoisted per step — they
        // depend only on the step counter, not on the weight.
        ++step;
        const double bc1 = adam_ ? 1.0 / (1.0 - std::pow(beta1, static_cast<double>(step))) : 1.0;
        const double bc2 = adam_ ? 1.0 / (1.0 - std::pow(beta2, static_cast<double>(step))) : 1.0;
        const double sgd_lr = lr / (1.0 + static_cast<double>(epoch) / 10.0);
        for (std::size_t l = 0; l < n_layers; ++l) {
          for (std::size_t o = 0; o < weights_[l].rows(); ++o) {
            const double db = delta[l][o];
            for (std::size_t in = 0; in < weights_[l].cols(); ++in) {
              const double g = db * act[l][in] + alpha_ * weights_[l](o, in);
              if (adam_) {
                double& m = m_w[l](o, in);
                double& v = v_w[l](o, in);
                m = beta1 * m + (1 - beta1) * g;
                v = beta2 * v + (1 - beta2) * g * g;
                weights_[l](o, in) -= lr * (m * bc1) / (std::sqrt(v * bc2) + eps);
              } else {
                double& m = m_w[l](o, in);
                m = 0.9 * m + g;
                weights_[l](o, in) -= sgd_lr * m;
              }
            }
            if (adam_) {
              double& m = m_b[l][o];
              double& v = v_b[l][o];
              m = beta1 * m + (1 - beta1) * db;
              v = beta2 * v + (1 - beta2) * db * db;
              biases_[l][o] -= lr * (m * bc1) / (std::sqrt(v * bc2) + eps);
            } else {
              double& m = m_b[l][o];
              m = 0.9 * m + db;
              biases_[l][o] -= sgd_lr * m;
            }
          }
        }
      }
    }
  }

  // save_model: header, then Classifier::save_base and
  // MultiLayerPerceptron::save.
  std::ostringstream out;
  out << "mlaas-model 1\n";
  model_io::write_string(out, "mlp");
  out << (single_class ? 1 : 0) << ' ' << (single_class && pos > 0 ? 1 : 0) << '\n';
  model_io::write_string(out, activation_);
  model_io::write_int(out, static_cast<long long>(weights_.size()));
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    model_io::write_matrix(out, weights_[l]);
    model_io::write_vec(out, biases_[l]);
  }
  model_io::write_vec(out, feat_mean_);
  model_io::write_vec(out, feat_std_);
  return out.str();
}

}  // namespace mlaas::oracle
