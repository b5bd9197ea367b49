// k-nearest-neighbors classifier (brute force).
//
// Parameters (local library row of Table 1):
//   n_neighbors  (default 5)
//   weights      "uniform" | "distance"
//   p            Minkowski exponent, 1 or 2 (default 2)
//
// Distances are computed on raw features, matching sklearn (the paper notes
// in §3.1 that categorical-to-integer mapping can hurt distance-based
// classifiers; that behaviour is preserved).
#pragma once

#include <span>
#include <utility>

#include "ml/classifier.h"

namespace mlaas {

class KNearestNeighbors final : public Classifier {
 public:
  explicit KNearestNeighbors(const ParamMap& params = {}, std::uint64_t seed = 0);

  void fit(const Matrix& x, const std::vector<int>& y) override;
  std::vector<double> predict_score(const Matrix& x) const override;
  void predict_score_into(const Matrix& x, std::vector<double>& out) const override;
  std::string name() const override { return "knn"; }
  bool is_linear() const override { return false; }

  void save(std::ostream& out) const override;
  void load(std::istream& in) override;

 private:
  long long n_neighbors_;
  bool distance_weighted_;
  double p_;

  Matrix train_x_;
  std::vector<int> train_y_;
  // p=2 fast path: ||x_i||^2 per train row, so Euclidean distances become
  // sqrt(||q||^2 - 2 q.x_i + ||x_i||^2) — one dot product per pair instead
  // of a subtract-square pass.  Recomputed on fit()/load(), not serialized.
  std::vector<double> train_sq_norms_;

  // Euclidean body of predict_score_into: sqrt + (distance, index) pairing,
  // neighbor selection and vote for one query whose squared distances are
  // already in d2.
  double score_from_squared_distances(std::span<const double> d2, std::size_t k,
                                      std::vector<std::pair<double, std::size_t>>& dist) const;

  // (Weighted) vote over the k nearest entries of an already-selected,
  // sorted (distance, train index) prefix.
  double vote(const std::vector<std::pair<double, std::size_t>>& dist,
              std::size_t k) const;
};

}  // namespace mlaas
