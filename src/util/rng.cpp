#include "util/rng.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <numbers>
#include <stdexcept>

namespace mlaas {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t hash64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return derive_seed(h, 0);
}

namespace {

template <typename T>
std::uint64_t content_hash_of(std::uint64_t shape, std::span<const T> values) {
  std::uint64_t state = shape;
  std::uint64_t h = splitmix64(state);
  for (const T v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(v));
    state = h ^ bits;
    h = splitmix64(state);
  }
  return h;
}

}  // namespace

std::uint64_t content_hash(std::uint64_t shape, std::span<const double> values) {
  return content_hash_of(shape, values);
}

std::uint64_t content_hash(std::uint64_t shape, std::span<const int> values) {
  return content_hash_of(shape, values);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull);
  std::uint64_t a = splitmix64(state);
  std::uint64_t b = splitmix64(state);
  return a ^ (b << 1);
}

std::uint64_t derive_seed(std::uint64_t seed, std::string_view salt) {
  return derive_seed(seed, hash64(salt));
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t state = seed;
  for (auto& s : s_) s = splitmix64(state);
}

static inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::size_t Rng::index(std::size_t n) {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % n;
  std::uint64_t x;
  do {
    x = next();
  } while (x >= limit);
  return static_cast<std::size_t>(x % n);
}

long long Rng::integer(long long lo, long long hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<long long>(next());  // full 64-bit range
  return lo + static_cast<long long>(index(static_cast<std::size_t>(span)));
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

bool Rng::chance(double p) { return uniform() < p; }

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n, std::size_t k) {
  std::vector<std::size_t> idx;
  sample_without_replacement_into(n, k, idx);
  return idx;
}

void Rng::sample_without_replacement_into(std::size_t n, std::size_t k,
                                          std::vector<std::size_t>& out) {
  if (k > n) throw std::invalid_argument("sample_without_replacement: k > n");
  // Partial Fisher-Yates over an index vector.
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + index(n - i);
    std::swap(out[i], out[j]);
  }
  out.resize(k);
}

}  // namespace mlaas
