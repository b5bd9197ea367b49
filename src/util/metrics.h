// A metrics registry with stable registration order, plus the
// visit_fields-based merge that lets stats structs (ServiceStats,
// PlatformCampaignStats) share one field-wise merge instead of hand-rolled
// field-by-field copies that drift whenever a counter is added.
//
// A stats struct opts in by defining a static visitor over its scalar
// fields:
//
//   template <typename Self, typename Visitor>
//   static void visit_fields(Self& self, Visitor&& visit) {
//     visit("requests", self.requests);
//     visit("uploads", self.uploads);
//     ...
//   }
//
// The Self template parameter makes the same visitor work for const and
// non-const instances, so merge_stats reads one side and writes the other
// off the single field list.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace mlaas {

/// Ordered registry of named counters.  Entries keep their
/// first-registration order, so encoding the registry is deterministic as
/// long as registration order is — which every caller in this repo
/// guarantees by registering in canonical (track / record) order.
class MetricsRegistry {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
  };

  /// Register-or-lookup; counters start at zero.
  double& counter(const std::string& name);

  const std::vector<Entry>& entries() const { return entries_; }

  /// Value of a registered metric; throws std::out_of_range when absent.
  double value(const std::string& name) const;

  /// "name=value;name=value" in registration order.  Integral values print
  /// without a decimal point so encoded counters read like the TSV
  /// trailers they ride in.
  std::string encode() const;

 private:
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

/// Format one metric value the way encode() does: integral values as
/// integers, everything else with enough digits to round-trip.
std::string format_metric_value(double value);

/// Field-wise add of `from` into `into` via the struct's visit_fields.
/// Values are accumulated through double, which is exact for the counter
/// magnitudes this repo produces (below 2^53).
template <typename Stats>
void merge_stats(Stats& into, const Stats& from) {
  std::vector<double> values;
  Stats::visit_fields(from, [&values](const char*, const auto& field) {
    values.push_back(static_cast<double>(field));
  });
  std::size_t i = 0;
  Stats::visit_fields(into, [&values, &i](const char*, auto& field) {
    using Field = std::decay_t<decltype(field)>;
    field = static_cast<Field>(static_cast<double>(field) + values[i++]);
  });
}

}  // namespace mlaas
