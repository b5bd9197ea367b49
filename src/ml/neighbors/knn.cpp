#include "ml/neighbors/knn.h"

#include "ml/serialize.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "linalg/dense_kernels.h"
#include "linalg/vector_ops.h"
#include "ml/tree/trainer.h"

namespace mlaas {

KNearestNeighbors::KNearestNeighbors(const ParamMap& params, std::uint64_t) {
  n_neighbors_ = std::max<long long>(1, params.get_int("n_neighbors", 5));
  distance_weighted_ = params.get_string("weights", "uniform") == "distance";
  p_ = std::max(1.0, params.get_double("p", 2.0));
}

namespace {

std::vector<double> row_squared_norms(const Matrix& x) {
  std::vector<double> norms(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto row = x.row(i);
    norms[i] = dot(row, row);
  }
  return norms;
}

}  // namespace

void KNearestNeighbors::fit(const Matrix& x, const std::vector<int>& y) {
  check_single_class(y);
  train_x_ = x;
  train_y_ = y;
  if (p_ != 2.0) {
    train_sq_norms_.clear();
    return;
  }
  // An installed TrainContext caches the norms across configs fitting the
  // same matrix (same per-row dot, so the values are bit-identical).
  if (TrainContext* context = active_train_context()) {
    train_sq_norms_ = *context->row_squared_norms(x);
  } else {
    train_sq_norms_ = row_squared_norms(x);
  }
}

std::vector<double> KNearestNeighbors::predict_score(const Matrix& x) const {
  std::vector<double> out;
  predict_score_into(x, out);
  return out;
}

void KNearestNeighbors::predict_score_into(const Matrix& x,
                                           std::vector<double>& out) const {
  if (fill_single_class(x.rows(), out)) return;
  const std::size_t n_train = train_x_.rows();
  const std::size_t k = std::min<std::size_t>(static_cast<std::size_t>(n_neighbors_), n_train);
  const bool euclidean = p_ == 2.0 && train_sq_norms_.size() == n_train;
  out.resize(x.rows());

  std::vector<std::pair<double, std::size_t>> dist(n_train);
  std::vector<double> d2(n_train);
  if (euclidean) {
    // Query pairs share one pass over the train matrix (each train row is
    // loaded once and feeds both queries' dot chains), then each query's
    // sqrt / selection / vote runs on its own distance vector.  The
    // q² - 2q·x + |x|² expression matches a per-pair loop, so scores are
    // bit-identical to it.
    std::vector<double> d2b(n_train);
    std::size_t q = 0;
    for (; q + 2 <= x.rows(); q += 2) {
      const auto query0 = x.row(q);
      const auto query1 = x.row(q + 1);
      squared_distance_from_norms_block2(query0, dot(query0, query0),
                                         query1, dot(query1, query1),
                                         train_x_, train_sq_norms_, d2, d2b);
      out[q] = score_from_squared_distances(d2, k, dist);
      out[q + 1] = score_from_squared_distances(d2b, k, dist);
    }
    for (; q < x.rows(); ++q) {
      const auto query = x.row(q);
      squared_distance_from_norms_block(query, dot(query, query), train_x_,
                                        train_sq_norms_, d2);
      out[q] = score_from_squared_distances(d2, k, dist);
    }
    return;
  }

  for (std::size_t q = 0; q < x.rows(); ++q) {
    const auto query = x.row(q);
    for (std::size_t i = 0; i < n_train; ++i) {
      dist[i] = {minkowski_distance(query, train_x_.row(i), p_), i};
    }
    if (k * 16 < n_train) {
      std::partial_sort(dist.begin(), dist.begin() + static_cast<std::ptrdiff_t>(k),
                        dist.end());
    } else {
      const auto kth = dist.begin() + static_cast<std::ptrdiff_t>(k);
      std::nth_element(dist.begin(), kth - 1, dist.end());
      std::sort(dist.begin(), kth);
    }
    out[q] = vote(dist, k);
  }
}

double KNearestNeighbors::score_from_squared_distances(
    std::span<const double> d2, std::size_t k,
    std::vector<std::pair<double, std::size_t>>& dist) const {
  const std::size_t n_train = d2.size();
  if (k * 16 < n_train) {
    // Fused bounded-insertion selection with lazy sqrt: scan candidates
    // once, keeping the k best as a sorted prefix of `dist` — no full pair
    // array is ever materialized and no separate selection pass runs.
    //
    // Exactness vs a partial_sort over all (sqrt, index) pairs:
    //   - s(v) = sqrt(max(0, v)) is monotone non-decreasing, so a
    //     candidate with d2 >= the current worst's d2 has s >= the worst's
    //     s; when the sqrt values are equal the candidate's strictly later
    //     index loses the tie-break.  Either way the full sort rejects it
    //     too, so the cheap d2 gate is exact and sqrt runs only for the
    //     ~k·ln(n) candidates that beat the current worst.
    //   - Insertions compare full (sqrt, index) pairs — a total order —
    //     so the surviving sorted prefix is exactly the k smallest pairs
    //     in ascending order, identical to partial_sort's.
    auto* top = dist.data();
    thread_local std::vector<double> top_d2;
    top_d2.resize(k);
    const auto insert = [&](std::size_t m, const std::pair<double, std::size_t>& cand,
                            double v) {
      std::size_t j = m;
      while (j > 0 && cand < top[j - 1]) {
        top[j] = top[j - 1];
        top_d2[j] = top_d2[j - 1];
        --j;
      }
      top[j] = cand;
      top_d2[j] = v;
    };
    // Warm-up: the first k candidates always enter the list.
    for (std::size_t i = 0; i < k; ++i) {
      const double v = d2[i];
      insert(i, {std::sqrt(std::max(0.0, v)), i}, v);
    }
    // Hot loop: one load and one register compare per rejected candidate.
    double worst = top_d2[k - 1];
    for (std::size_t i = k; i < n_train; ++i) {
      const double v = d2[i];
      if (v >= worst) continue;
      const std::pair<double, std::size_t> cand{std::sqrt(std::max(0.0, v)), i};
      if (!(cand < top[k - 1])) continue;
      insert(k - 1, cand, v);
      worst = top_d2[k - 1];
    }
    return vote(dist, k);
  }
  // Large k: nth_element + sorting the front is O(n + k log k) and moves
  // each element at most a few times, vs the bounded insertion's O(n log k).
  // (distance, index) is a total order, so every exact k-smallest algorithm
  // yields the identical sorted neighbor list.
  for (std::size_t i = 0; i < n_train; ++i) {
    dist[i] = {std::sqrt(std::max(0.0, d2[i])), i};
  }
  const auto kth = dist.begin() + static_cast<std::ptrdiff_t>(k);
  std::nth_element(dist.begin(), kth - 1, dist.end());
  std::sort(dist.begin(), kth);
  return vote(dist, k);
}

double KNearestNeighbors::vote(const std::vector<std::pair<double, std::size_t>>& dist,
                               std::size_t k) const {
  double pos = 0.0, total = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    const double w = distance_weighted_ ? 1.0 / (dist[j].first + 1e-9) : 1.0;
    total += w;
    if (train_y_[dist[j].second] == 1) pos += w;
  }
  return total > 0 ? pos / total : 0.5;
}


void KNearestNeighbors::save(std::ostream& out) const {
  save_base(out);
  model_io::write_int(out, n_neighbors_);
  model_io::write_int(out, distance_weighted_ ? 1 : 0);
  model_io::write_double(out, p_);
  model_io::write_matrix(out, train_x_);
  model_io::write_ivec(out, train_y_);
}

void KNearestNeighbors::load(std::istream& in) {
  load_base(in);
  n_neighbors_ = model_io::read_int(in);
  distance_weighted_ = model_io::read_int(in) != 0;
  p_ = model_io::read_double(in);
  train_x_ = model_io::read_matrix(in);
  train_y_ = model_io::read_ivec(in);
  // Hold the constructor's invariants (n_neighbors >= 1, p >= 1) and one
  // label per training row: predict_score indexes the k-best list at k - 1
  // and votes with train_y_[row], so either would otherwise read out of
  // bounds.
  if (n_neighbors_ < 1) throw std::runtime_error("load_model: knn n_neighbors must be >= 1");
  if (!(p_ >= 1.0)) throw std::runtime_error("load_model: knn p must be >= 1");
  if (train_y_.size() != train_x_.rows()) {
    throw std::runtime_error("load_model: knn has " + std::to_string(train_y_.size()) +
                             " labels for " + std::to_string(train_x_.rows()) +
                             " training rows");
  }
  if (!single_class() && train_x_.rows() == 0) {
    throw std::runtime_error("load_model: knn has no training rows");
  }
  train_sq_norms_ = p_ == 2.0 ? row_squared_norms(train_x_) : std::vector<double>{};
}

}  // namespace mlaas
