#include "tests/oracle/kendall.h"

#include <cassert>
#include <cmath>
#include <cstddef>

namespace mlaas::oracle {

double reference_kendall(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  const std::size_t n = a.size();
  if (n < 2) return 0.0;
  long long concordant = 0, discordant = 0, ties_a = 0, ties_b = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double da = a[i] - a[j];
      const double db = b[i] - b[j];
      if (da == 0.0 && db == 0.0) continue;
      if (da == 0.0) {
        ++ties_a;
      } else if (db == 0.0) {
        ++ties_b;
      } else if ((da > 0) == (db > 0)) {
        ++concordant;
      } else {
        ++discordant;
      }
    }
  }
  const double n0 = static_cast<double>(concordant + discordant);
  const double denom =
      std::sqrt((n0 + static_cast<double>(ties_a)) * (n0 + static_cast<double>(ties_b)));
  if (denom == 0.0) return 0.0;
  return static_cast<double>(concordant - discordant) / denom;
}

}  // namespace mlaas::oracle
