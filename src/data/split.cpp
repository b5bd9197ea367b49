#include "data/split.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.h"

namespace mlaas {

TrainTestSplit train_test_split(const Dataset& dataset, double test_fraction,
                                std::uint64_t seed, bool stratified) {
  if (!(test_fraction > 0.0 && test_fraction < 1.0)) {  // NaN fails too
    throw std::invalid_argument("train_test_split: fraction must be in (0,1)");
  }
  const std::size_t n = dataset.n_samples();
  if (n < 2) throw std::invalid_argument("train_test_split: need at least 2 samples");
  Rng rng(seed);

  std::vector<std::size_t> test_idx, train_idx;
  if (stratified) {
    std::vector<std::size_t> by_class[2];
    for (std::size_t i = 0; i < n; ++i) by_class[dataset.y()[i]].push_back(i);
    for (auto& cls : by_class) {
      rng.shuffle(cls);
      std::size_t n_test = static_cast<std::size_t>(
          std::llround(test_fraction * static_cast<double>(cls.size())));
      // Keep at least one sample of the class on each side when possible.
      if (cls.size() >= 2) {
        n_test = std::clamp<std::size_t>(n_test, 1, cls.size() - 1);
      } else {
        n_test = 0;  // lone sample goes to train
      }
      for (std::size_t i = 0; i < cls.size(); ++i) {
        (i < n_test ? test_idx : train_idx).push_back(cls[i]);
      }
    }
  } else {
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
    rng.shuffle(idx);
    std::size_t n_test = static_cast<std::size_t>(
        std::llround(test_fraction * static_cast<double>(n)));
    n_test = std::clamp<std::size_t>(n_test, 1, n - 1);
    test_idx.assign(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(n_test));
    train_idx.assign(idx.begin() + static_cast<std::ptrdiff_t>(n_test), idx.end());
  }
  std::sort(train_idx.begin(), train_idx.end());
  std::sort(test_idx.begin(), test_idx.end());
  return {dataset.subset(train_idx), dataset.subset(test_idx)};
}

std::vector<int> kfold_assignment(const std::vector<int>& y, int k, std::uint64_t seed) {
  if (k < 2) throw std::invalid_argument("kfold_assignment: k must be >= 2");
  Rng rng(seed);
  std::vector<int> fold(y.size(), 0);
  std::vector<std::size_t> by_class[2];
  for (std::size_t i = 0; i < y.size(); ++i) by_class[y[i] == 1 ? 1 : 0].push_back(i);
  for (auto& cls : by_class) {
    rng.shuffle(cls);
    for (std::size_t i = 0; i < cls.size(); ++i) {
      fold[cls[i]] = static_cast<int>(i % static_cast<std::size_t>(k));
    }
  }
  return fold;
}

}  // namespace mlaas
