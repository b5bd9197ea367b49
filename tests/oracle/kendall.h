// Test-only reference oracle for the Kendall rank correlation.  See
// tests/oracle/mlp_fit.h for what the oracles are for.
#pragma once

#include <span>

namespace mlaas::oracle {

/// kendall() as it was before the sort-and-merge counts: the O(n^2) walk
/// over every pair of rows, classifying each by the signs of a[i] - a[j]
/// and b[i] - b[j].
double reference_kendall(std::span<const double> a, std::span<const double> b);

}  // namespace mlaas::oracle
