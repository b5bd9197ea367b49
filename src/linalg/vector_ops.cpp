#include "linalg/vector_ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mlaas {

double dot(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

double norm1(std::span<const double> a) {
  double acc = 0.0;
  for (double v : a) acc += std::abs(v);
  return acc;
}

void axpy(std::span<double> a, double scale, std::span<const double> b) {
  assert(a.size() == b.size());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += scale * b[i];
}

void scale_inplace(std::span<double> a, double scale) {
  for (double& v : a) v *= scale;
}

double squared_distance(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double minkowski_distance(std::span<const double> a, std::span<const double> b, double p) {
  assert(a.size() == b.size());
  if (p == 2.0) return std::sqrt(squared_distance(a, b));
  if (p == 1.0) {
    // Bit-identical to the general formula below: x is representable and
    // glibc's pow errs far less than half an ULP before its final rounding,
    // so pow(x, 1.0) returns x itself; the sum keeps its order and 0.0 start.
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) acc += std::abs(a[i] - b[i]);
    return acc;
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += std::pow(std::abs(a[i] - b[i]), p);
  return std::pow(acc, 1.0 / p);
}

std::size_t argmax(std::span<const double> v) {
  assert(!v.empty());
  return static_cast<std::size_t>(std::max_element(v.begin(), v.end()) - v.begin());
}

double sigmoid(double z) {
  if (z >= 0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

double log1p_exp(double z) {
  if (z > 35.0) return z;
  if (z < -35.0) return 0.0;
  return std::log1p(std::exp(z));
}

std::vector<double> softmax(std::span<const double> v) {
  std::vector<double> out(v.begin(), v.end());
  const double m = *std::max_element(out.begin(), out.end());
  double sum = 0.0;
  for (double& x : out) {
    x = std::exp(x - m);
    sum += x;
  }
  for (double& x : out) x /= sum;
  return out;
}

}  // namespace mlaas
