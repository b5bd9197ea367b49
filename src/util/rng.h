// Deterministic pseudo-random number generation.
//
// Everything stochastic in this codebase draws from mlaas::Rng, a
// xoshiro256** generator seeded via splitmix64.  Seeds for sub-components
// are derived with derive_seed(), so experiments are reproducible and
// independent of evaluation order or parallelism.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

namespace mlaas {

/// splitmix64 step; used for seeding and cheap hashing.
std::uint64_t splitmix64(std::uint64_t& state);

/// Stable 64-bit hash of a string (FNV-1a finished with splitmix64).
std::uint64_t hash64(std::string_view s);

/// splitmix64 chain over the raw bits of `values`, seeded with `shape`: the
/// content hash behind TrainContext's keys and the measurement fingerprint.
std::uint64_t content_hash(std::uint64_t shape, std::span<const double> values);
std::uint64_t content_hash(std::uint64_t shape, std::span<const int> values);

/// Combine a seed with extra entropy (order-sensitive, deterministic).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);
std::uint64_t derive_seed(std::uint64_t seed, std::string_view salt);

/// xoshiro256** — small, fast, high-quality PRNG.
/// Satisfies UniformRandomBitGenerator so it also works with <random>.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() { return next(); }
  std::uint64_t next();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);
  /// Uniform integer in [lo, hi] inclusive.
  long long integer(long long lo, long long hi);
  /// Standard normal via Box-Muller (cached second value).
  double normal();
  double normal(double mean, double stddev);
  /// Bernoulli draw.
  bool chance(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = index(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// k distinct indices sampled uniformly from [0, n) (k <= n).
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

  /// Same draw sequence as sample_without_replacement, writing into a
  /// caller-owned buffer (resized to k) so hot loops avoid the per-call
  /// allocation.
  void sample_without_replacement_into(std::size_t n, std::size_t k,
                                       std::vector<std::size_t>& out);

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace mlaas
