#include "ml/regression/knn_regressor.h"

#include <algorithm>
#include <stdexcept>

#include "linalg/vector_ops.h"

namespace mlaas {

KnnRegressor::KnnRegressor(const ParamMap& params, std::uint64_t) {
  n_neighbors_ = std::max<long long>(1, params.get_int("n_neighbors", 5));
  distance_weighted_ = params.get_string("weights", "uniform") == "distance";
  p_ = std::max(1.0, params.get_double("p", 2.0));
}

void KnnRegressor::fit(const Matrix& x, const std::vector<double>& y) {
  if (x.rows() != y.size()) throw std::invalid_argument("KnnRegressor: size mismatch");
  train_x_ = x;
  train_y_ = y;
}

std::vector<double> KnnRegressor::predict(const Matrix& x) const {
  const std::size_t n_train = train_x_.rows();
  if (n_train == 0) throw std::logic_error("KnnRegressor: predict before fit");
  const std::size_t k = std::min<std::size_t>(static_cast<std::size_t>(n_neighbors_), n_train);

  std::vector<double> out(x.rows(), 0.0);
  std::vector<std::pair<double, std::size_t>> dist(n_train);
  for (std::size_t q = 0; q < x.rows(); ++q) {
    const auto query = x.row(q);
    for (std::size_t i = 0; i < n_train; ++i) {
      dist[i] = {minkowski_distance(query, train_x_.row(i), p_), i};
    }
    if (k * 16 < n_train) {
      // (distance, index) is a total order, so every exact k-smallest
      // algorithm selects the identical sorted neighbor list; the bounded
      // heap wins for small k (one compare per candidate, no moves).
      std::partial_sort(dist.begin(), dist.begin() + static_cast<std::ptrdiff_t>(k),
                        dist.end());
    } else {
      // Large k: nth_element + sorting the front, O(n + k log k).
      const auto kth = dist.begin() + static_cast<std::ptrdiff_t>(k);
      std::nth_element(dist.begin(), kth - 1, dist.end());
      std::sort(dist.begin(), kth);
    }
    double sum = 0.0, total_weight = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      const double w = distance_weighted_ ? 1.0 / (dist[j].first + 1e-9) : 1.0;
      sum += w * train_y_[dist[j].second];
      total_weight += w;
    }
    out[q] = total_weight > 0 ? sum / total_weight : 0.0;
  }
  return out;
}

}  // namespace mlaas
