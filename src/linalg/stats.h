// Descriptive statistics and rank-correlation measures.
//
// These back the filter feature-selection methods (Pearson/Spearman/Kendall/
// chi-squared/Fisher score) and the Friedman ranking used by the evaluation
// harness (§3.2 of the paper).
#pragma once

#include <span>
#include <vector>

namespace mlaas {

double mean(std::span<const double> v);
/// Population variance (divide by n); 0 for n < 1.
double variance(std::span<const double> v);
double stddev(std::span<const double> v);
/// Sample covariance (divide by n).
double covariance(std::span<const double> a, std::span<const double> b);

double min_value(std::span<const double> v);
double max_value(std::span<const double> v);
/// Median (average of middle two for even n). Requires non-empty input.
double median(std::span<const double> v);
/// Linear-interpolated quantile, q in [0,1]. Requires non-empty input.
double quantile(std::span<const double> v, double q);

/// Fractional ranks (1-based, ties get the average rank) — as used for
/// Spearman correlation and Friedman ranking.
std::vector<double> fractional_ranks(std::span<const double> v);

/// Pearson correlation coefficient in [-1, 1]; 0 when either side is constant.
double pearson(std::span<const double> a, std::span<const double> b);
/// Spearman rank correlation.
double spearman(std::span<const double> a, std::span<const double> b);
/// Kendall tau-b rank correlation.  O(n log n) on finite inputs; inputs
/// holding NaN or +-Inf take an O(n^2) pair walk.
double kendall(std::span<const double> a, std::span<const double> b);

/// Chi-squared statistic between a non-negative feature and binary labels
/// (sklearn chi2 convention: observed class-sums vs expected under
/// label-independence).
double chi_squared(std::span<const double> feature, std::span<const int> labels);

/// Fisher score: (m1-m0)^2 / (v0+v1) for a binary-labeled feature.
double fisher_score(std::span<const double> feature, std::span<const int> labels);

/// Mutual information between a continuous feature (equal-frequency binned)
/// and binary labels, in nats.
double mutual_information(std::span<const double> feature, std::span<const int> labels,
                          int bins = 8);

/// ANOVA F-statistic for a feature split by binary labels (sklearn
/// f_classif).
double anova_f(std::span<const double> feature, std::span<const int> labels);

}  // namespace mlaas
