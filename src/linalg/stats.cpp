#include "linalg/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace mlaas {

double mean(std::span<const double> v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double variance(std::span<const double> v) {
  if (v.size() < 1) return 0.0;
  const double m = mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return acc / static_cast<double>(v.size());
}

double stddev(std::span<const double> v) { return std::sqrt(variance(v)); }

double covariance(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  if (a.empty()) return 0.0;
  const double ma = mean(a), mb = mean(b);
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += (a[i] - ma) * (b[i] - mb);
  return acc / static_cast<double>(a.size());
}

double min_value(std::span<const double> v) {
  if (v.empty()) throw std::invalid_argument("min_value: empty");
  return *std::min_element(v.begin(), v.end());
}

double max_value(std::span<const double> v) {
  if (v.empty()) throw std::invalid_argument("max_value: empty");
  return *std::max_element(v.begin(), v.end());
}

double median(std::span<const double> v) { return quantile(v, 0.5); }

double quantile(std::span<const double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile: empty");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q out of [0,1]");
  std::vector<double> s(v.begin(), v.end());
  // NaN breaks strict weak ordering: selection would be UB and the result
  // would depend on element order.  Reject it deterministically instead.
  for (const double x : s) {
    if (std::isnan(x)) throw std::invalid_argument("quantile: NaN input");
  }
  const double pos = q * static_cast<double>(s.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Selection instead of a full sort: nth_element puts the lo-th order
  // statistic in place and partitions, so the hi-th order statistic is the
  // minimum of the upper partition.  Same values as the sorted path, hence
  // bit-identical interpolation.
  std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(lo), s.end());
  const double lo_val = s[lo];
  const double hi_val =
      hi == lo ? lo_val
               : *std::min_element(s.begin() + static_cast<std::ptrdiff_t>(lo) + 1, s.end());
  return lo_val * (1.0 - frac) + hi_val * frac;
}

std::vector<double> fractional_ranks(std::span<const double> v) {
  const std::size_t n = v.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  std::vector<double> ranks(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && v[order[j + 1]] == v[order[i]]) ++j;
    // Average 1-based rank over the tie group [i, j].
    const double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

double pearson(std::span<const double> a, std::span<const double> b) {
  const double sa = stddev(a), sb = stddev(b);
  if (sa == 0.0 || sb == 0.0) return 0.0;
  return covariance(a, b) / (sa * sb);
}

double spearman(std::span<const double> a, std::span<const double> b) {
  const auto ra = fractional_ranks(a);
  const auto rb = fractional_ranks(b);
  return pearson(ra, rb);
}

namespace {

/// The four pair counts Kendall's tau-b is built from.  A pair tied in both
/// a and b is in none of them.
struct KendallCounts {
  long long concordant = 0;
  long long discordant = 0;
  long long ties_a = 0;  // tied in a only
  long long ties_b = 0;  // tied in b only
};

/// Classifies every pair by the signs of a[i] - a[j] and b[i] - b[j].
/// O(n^2); kept for non-finite inputs, where a sort cannot reproduce it.
KendallCounts pairwise_kendall_counts(std::span<const double> a, std::span<const double> b) {
  const std::size_t n = a.size();
  KendallCounts c;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double da = a[i] - a[j];
      const double db = b[i] - b[j];
      if (da == 0.0 && db == 0.0) continue;
      if (da == 0.0) {
        ++c.ties_a;
      } else if (db == 0.0) {
        ++c.ties_b;
      } else if ((da > 0) == (db > 0)) {
        ++c.concordant;
      } else {
        ++c.discordant;
      }
    }
  }
  return c;
}

/// Pairs within runs of equal values: sum of t(t-1)/2 over the runs of the
/// sorted range [first, last) under `equal`.
template <typename It, typename Equal>
long long tied_pairs(It first, It last, Equal equal) {
  long long pairs = 0;
  while (first != last) {
    It run_end = first + 1;
    while (run_end != last && equal(*first, *run_end)) ++run_end;
    const auto t = static_cast<long long>(run_end - first);
    pairs += t * (t - 1) / 2;
    first = run_end;
  }
  return pairs;
}

/// Knight's O(n log n) counts.  Requires finite inputs: then x - y == 0 iff
/// x == y (gradual underflow) and x - y > 0 iff x > y (an overflow to +-Inf
/// keeps the sign), so comparisons classify every pair exactly as the pair
/// walk's subtractions do.
KendallCounts sorted_kendall_counts(std::span<const double> a, std::span<const double> b) {
  const std::size_t n = a.size();
  std::vector<std::pair<double, double>> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = {a[i], b[i]};
  std::sort(rows.begin(), rows.end());
  const long long tied_a = tied_pairs(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
    return x.first == y.first;
  });
  const long long tied_ab = tied_pairs(rows.begin(), rows.end(), std::equal_to<>());

  // With rows in (a, b) order, a pair is discordant iff its b values are
  // strictly inverted: within a run of equal a, b ascends.  Count the
  // strict inversions with a bottom-up merge sort of the b sequence.
  std::vector<double> seq(n), merged(n);
  for (std::size_t i = 0; i < n; ++i) seq[i] = rows[i].second;
  long long inversions = 0;
  for (std::size_t width = 1; width < n; width *= 2) {
    for (std::size_t lo = 0; lo < n; lo += 2 * width) {
      const std::size_t mid = std::min(lo + width, n);
      const std::size_t hi = std::min(lo + 2 * width, n);
      std::size_t i = lo, j = mid, k = lo;
      while (i < mid && j < hi) {
        if (seq[j] < seq[i]) {
          inversions += static_cast<long long>(mid - i);
          merged[k++] = seq[j++];
        } else {
          merged[k++] = seq[i++];
        }
      }
      while (i < mid) merged[k++] = seq[i++];
      while (j < hi) merged[k++] = seq[j++];
    }
    seq.swap(merged);
  }
  const long long tied_b = tied_pairs(seq.begin(), seq.end(), std::equal_to<>());

  const auto pairs = static_cast<long long>(n) * static_cast<long long>(n - 1) / 2;
  KendallCounts c;
  c.discordant = inversions;
  c.ties_a = tied_a - tied_ab;
  c.ties_b = tied_b - tied_ab;
  c.concordant = pairs - tied_a - tied_b + tied_ab - inversions;
  return c;
}

bool all_finite(std::span<const double> v) {
  return std::all_of(v.begin(), v.end(), [](double x) { return std::isfinite(x); });
}

}  // namespace

double kendall(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  const std::size_t n = a.size();
  if (n < 2) return 0.0;
  // NaN breaks the strict weak order a sort needs, and the pair walk does
  // not treat equal infinities as ties (Inf - Inf is NaN).
  const KendallCounts c = all_finite(a) && all_finite(b) ? sorted_kendall_counts(a, b)
                                                         : pairwise_kendall_counts(a, b);
  const double n0 = static_cast<double>(c.concordant + c.discordant);
  const double denom =
      std::sqrt((n0 + static_cast<double>(c.ties_a)) * (n0 + static_cast<double>(c.ties_b)));
  if (denom == 0.0) return 0.0;
  return static_cast<double>(c.concordant - c.discordant) / denom;
}

double chi_squared(std::span<const double> feature, std::span<const int> labels) {
  assert(feature.size() == labels.size());
  const std::size_t n = feature.size();
  if (n == 0) return 0.0;
  // sklearn chi2: treat the (non-negative) feature values as frequencies.
  double total = 0.0, sum_pos = 0.0;
  std::size_t n_pos = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double f = std::max(0.0, feature[i]);
    total += f;
    if (labels[i] == 1) {
      sum_pos += f;
      ++n_pos;
    }
  }
  if (total == 0.0 || n_pos == 0 || n_pos == n) return 0.0;
  const double p1 = static_cast<double>(n_pos) / static_cast<double>(n);
  const double expected_pos = total * p1;
  const double expected_neg = total * (1.0 - p1);
  const double sum_neg = total - sum_pos;
  double stat = 0.0;
  if (expected_pos > 0) stat += (sum_pos - expected_pos) * (sum_pos - expected_pos) / expected_pos;
  if (expected_neg > 0) stat += (sum_neg - expected_neg) * (sum_neg - expected_neg) / expected_neg;
  return stat;
}

double fisher_score(std::span<const double> feature, std::span<const int> labels) {
  assert(feature.size() == labels.size());
  std::vector<double> c0, c1;
  for (std::size_t i = 0; i < feature.size(); ++i) {
    (labels[i] == 1 ? c1 : c0).push_back(feature[i]);
  }
  if (c0.empty() || c1.empty()) return 0.0;
  const double m0 = mean(c0), m1 = mean(c1);
  const double v0 = variance(c0), v1 = variance(c1);
  const double denom = v0 + v1;
  if (denom == 0.0) return m0 == m1 ? 0.0 : 1e12;
  return (m1 - m0) * (m1 - m0) / denom;
}

double mutual_information(std::span<const double> feature, std::span<const int> labels,
                          int bins) {
  assert(feature.size() == labels.size());
  const std::size_t n = feature.size();
  if (n == 0 || bins < 1) return 0.0;
  // Equal-frequency binning via rank quantiles.
  const auto ranks = fractional_ranks(feature);
  std::vector<int> bin(n);
  for (std::size_t i = 0; i < n; ++i) {
    int b = static_cast<int>((ranks[i] - 1.0) / static_cast<double>(n) * bins);
    bin[i] = std::clamp(b, 0, bins - 1);
  }
  std::vector<double> joint(static_cast<std::size_t>(bins) * 2, 0.0);
  std::vector<double> pb(static_cast<std::size_t>(bins), 0.0);
  double py[2] = {0.0, 0.0};
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int y = labels[i] == 1 ? 1 : 0;
    joint[static_cast<std::size_t>(bin[i]) * 2 + static_cast<std::size_t>(y)] += inv_n;
    pb[static_cast<std::size_t>(bin[i])] += inv_n;
    py[y] += inv_n;
  }
  double mi = 0.0;
  for (int b = 0; b < bins; ++b) {
    for (int y = 0; y < 2; ++y) {
      const double pxy = joint[static_cast<std::size_t>(b) * 2 + static_cast<std::size_t>(y)];
      if (pxy > 0.0 && pb[static_cast<std::size_t>(b)] > 0.0 && py[y] > 0.0) {
        mi += pxy * std::log(pxy / (pb[static_cast<std::size_t>(b)] * py[y]));
      }
    }
  }
  return std::max(0.0, mi);
}

double anova_f(std::span<const double> feature, std::span<const int> labels) {
  assert(feature.size() == labels.size());
  std::vector<double> c0, c1;
  for (std::size_t i = 0; i < feature.size(); ++i) {
    (labels[i] == 1 ? c1 : c0).push_back(feature[i]);
  }
  const double n0 = static_cast<double>(c0.size());
  const double n1 = static_cast<double>(c1.size());
  if (n0 < 1 || n1 < 1 || n0 + n1 < 3) return 0.0;
  const double grand = mean(feature);
  const double m0 = mean(c0), m1 = mean(c1);
  const double ss_between = n0 * (m0 - grand) * (m0 - grand) + n1 * (m1 - grand) * (m1 - grand);
  double ss_within = 0.0;
  for (double x : c0) ss_within += (x - m0) * (x - m0);
  for (double x : c1) ss_within += (x - m1) * (x - m1);
  const double df_between = 1.0;
  const double df_within = n0 + n1 - 2.0;
  if (ss_within == 0.0) return ss_between == 0.0 ? 0.0 : 1e12;
  return (ss_between / df_between) / (ss_within / df_within);
}

}  // namespace mlaas
