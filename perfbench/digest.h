// Output digests: 64-bit FNV-1a over a canonical text rendering of each
// workload's results.  Doubles are rendered with %.17g so any bit change in
// a score changes the digest.  Wall- and CPU-time fields are left out.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/study.h"
#include "eval/measurement.h"
#include "platform/serving.h"

namespace perfbench {

class Digest {
 public:
  Digest& add(const std::string& s);
  Digest& add(double v);
  Digest& add(std::uint64_t v);
  Digest& add(int v) { return add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  Digest& add(bool v) { return add(static_cast<std::uint64_t>(v)); }
  Digest& add(const std::vector<int>& v);
  Digest& add(const std::vector<double>& v);

  std::string hex() const;

 private:
  void bytes(const void* data, std::size_t n);
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Campaign table with the CPU-time columns (train_seconds,
/// predict_seconds) masked, plus the per-platform cell and service counters
/// (CPU-time counters masked, scheduler telemetry left out).
std::string campaign_digest(const mlaas::CampaignResult& result);

/// Serving report counters (TSV rendering) after an iteration.
std::string serving_report_digest(const mlaas::ServingReport& report);

/// Fold one experiment result of mlaas::Study into `d`, every field.
void add_result(Digest& d, const std::vector<mlaas::PlatformSummary>& v);
void add_result(Digest& d, const std::vector<mlaas::ControlImprovement>& v);
void add_result(Digest& d, const std::vector<std::pair<std::string, double>>& v);
void add_result(Digest& d, const std::vector<mlaas::VariationSummary>& v);
void add_result(Digest& d, const std::vector<mlaas::DimensionVariation>& v);
void add_result(Digest& d, const std::vector<mlaas::SubsetCurve>& v);
void add_result(Digest& d, const mlaas::BoundaryMap& m);
void add_result(Digest& d, const mlaas::FamilyScores& s);
void add_result(Digest& d, const mlaas::FamilyPredictorReport& r);
void add_result(Digest& d, const std::vector<mlaas::BlackBoxChoice>& v);
void add_result(Digest& d, const std::vector<mlaas::NaiveResult>& v);
void add_result(Digest& d, const mlaas::NaiveComparison& c);

}  // namespace perfbench
