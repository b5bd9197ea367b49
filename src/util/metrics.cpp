#include "util/metrics.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace mlaas {

double& MetricsRegistry::counter(const std::string& name) {
  const auto it = index_.find(name);
  if (it != index_.end()) return entries_[it->second].value;
  index_.emplace(name, entries_.size());
  entries_.push_back(Entry{name, 0.0});
  return entries_.back().value;
}

double MetricsRegistry::value(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) {
    throw std::out_of_range("MetricsRegistry: unknown metric " + name);
  }
  return entries_[it->second].value;
}

std::string format_metric_value(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 9.007199254740992e15) {
    std::ostringstream out;
    out << static_cast<long long>(value);
    return out.str();
  }
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

std::string MetricsRegistry::encode() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out << ';';
    out << entries_[i].name << '=' << format_metric_value(entries_[i].value);
  }
  return out.str();
}

}  // namespace mlaas
