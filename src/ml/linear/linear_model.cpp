#include "ml/linear/linear_model.h"

#include "linalg/dense_kernels.h"
#include "linalg/vector_ops.h"
#include "ml/feature/scalers.h"
#include "ml/serialize.h"

namespace mlaas {

void LinearModel::predict_score_into(const Matrix& x, std::vector<double>& out) const {
  if (fill_single_class(x.rows(), out)) return;
  out.resize(x.rows());
  matvec_into(x, w_, out);  // bit-identical to x.multiply(w_), no temporary
  for (double& v : out) v = sigmoid(margin_scale_ * (v + b_));
}

void LinearModel::save(std::ostream& out) const {
  save_base(out);
  model_io::write_vec(out, w_);
  model_io::write_double(out, b_);
}

void LinearModel::load(std::istream& in) {
  load_base(in);
  w_ = model_io::read_vec(in);
  b_ = model_io::read_double(in);
}

bool LinearModel::start_fit(std::size_t d, const std::vector<int>& y) {
  w_.assign(d, 0.0);
  b_ = 0.0;
  return check_single_class(y);
}

void LinearModel::set_from_standardized(const std::vector<double>& w, double b,
                                        const StandardScaler& scaler) {
  const auto& mu = scaler.means();
  const auto& sd = scaler.stds();
  w_.resize(w.size());
  b_ = b;
  for (std::size_t c = 0; c < w.size(); ++c) {
    w_[c] = w[c] / sd[c];
    b_ -= w[c] * mu[c] / sd[c];
  }
}

}  // namespace mlaas
