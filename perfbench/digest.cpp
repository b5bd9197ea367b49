#include "digest.h"

#include <cstdio>
#include <sstream>

namespace perfbench {

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

Digest& Digest::add(const std::string& s) {
  bytes(s.data(), s.size());
  bytes("\x1f", 1);  // field separator: ("ab","c") != ("a","bc")
  return *this;
}

Digest& Digest::add(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return add(std::string(buf));
}

Digest& Digest::add(std::uint64_t v) { return add(std::to_string(v)); }

Digest& Digest::add(const std::vector<int>& v) {
  add(static_cast<std::uint64_t>(v.size()));
  for (int x : v) add(x);
  return *this;
}

Digest& Digest::add(const std::vector<double>& v) {
  add(static_cast<std::uint64_t>(v.size()));
  for (double x : v) add(x);
  return *this;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

std::string campaign_digest(const mlaas::CampaignResult& result) {
  Digest d;
  for (const auto& row : result.table.rows()) {
    mlaas::Measurement masked = row;
    masked.train_seconds = 0.0;
    masked.predict_seconds = 0.0;
    d.add(mlaas::measurement_row_to_tsv(masked));
  }
  for (const auto& p : result.report.platforms) {
    d.add(p.platform);
    mlaas::PlatformCampaignStats::visit_fields(p, [&](const char* name, const auto& v) {
      d.add(std::string(name)).add(v);
    });
    mlaas::ServiceStats service = p.service;
    service.train_cpu_seconds = 0.0;
    service.predict_cpu_seconds = 0.0;
    mlaas::ServiceStats::visit_fields(service, [&](const char* name, const auto& v) {
      d.add(std::string(name)).add(v);
    });
    for (const auto& [status, n] : p.failures_by_status) {
      d.add(status).add(static_cast<std::uint64_t>(n));
    }
  }
  return d.hex();
}

std::string serving_report_digest(const mlaas::ServingReport& report) {
  std::ostringstream os;
  report.write_tsv(os);
  return Digest().add(os.str()).hex();
}

namespace {

void add_metrics(Digest& d, const mlaas::Metrics& m) {
  d.add(m.accuracy).add(m.precision).add(m.recall).add(m.f_score);
}

std::uint64_t as_u64(std::size_t n) { return static_cast<std::uint64_t>(n); }

}  // namespace

void add_result(Digest& d, const std::vector<mlaas::PlatformSummary>& v) {
  for (const auto& s : v) {
    d.add(s.platform);
    add_metrics(d, s.avg);
    d.add(s.f_std_error).add(s.rank_f).add(s.rank_acc).add(s.rank_prec).add(s.rank_rec);
    d.add(s.avg_rank).add(as_u64(s.n_datasets));
  }
}

void add_result(Digest& d, const std::vector<mlaas::ControlImprovement>& v) {
  for (const auto& c : v) {
    d.add(c.platform).add(static_cast<int>(c.dimension)).add(c.baseline_f).add(c.tuned_f);
    d.add(c.relative_improvement).add(c.supported);
  }
}

void add_result(Digest& d, const std::vector<std::pair<std::string, double>>& v) {
  for (const auto& [name, share] : v) d.add(name).add(share);
}

void add_result(Digest& d, const std::vector<mlaas::VariationSummary>& v) {
  for (const auto& s : v) {
    d.add(s.platform).add(s.min_f).add(s.q1_f).add(s.median_f).add(s.q3_f).add(s.max_f);
    d.add(as_u64(s.n_configs));
  }
}

void add_result(Digest& d, const std::vector<mlaas::DimensionVariation>& v) {
  for (const auto& s : v) {
    d.add(s.platform).add(static_cast<int>(s.dimension)).add(s.range);
    d.add(s.normalized_range).add(s.supported);
  }
}

void add_result(Digest& d, const std::vector<mlaas::SubsetCurve>& v) {
  for (const auto& c : v) {
    d.add(c.platform);
    for (const auto& p : c.points) d.add(p.k).add(p.expected_best_f).add(p.std_dev);
  }
}

void add_result(Digest& d, const mlaas::BoundaryMap& m) {
  d.add(m.resolution).add(m.x_lo).add(m.x_hi).add(m.y_lo).add(m.y_hi).add(m.labels);
  d.add(m.linear_fit_accuracy).add(m.positive_fraction);
}

void add_result(Digest& d, const mlaas::FamilyScores& s) {
  d.add(s.linear_f).add(s.nonlinear_f);
}

void add_result(Digest& d, const mlaas::FamilyPredictorReport& r) {
  for (const auto& p : r.predictors) {
    d.add(p.dataset_id).add(p.validation_f).add(p.test_f).add(p.trainable);
  }
  for (const auto& id : r.selected) d.add(id);
}

void add_result(Digest& d, const std::vector<mlaas::BlackBoxChoice>& v) {
  for (const auto& c : v) {
    d.add(c.dataset_id).add(static_cast<int>(c.family)).add(c.nonlinear_fraction);
    d.add(as_u64(c.n_rows));
  }
}

void add_result(Digest& d, const std::vector<mlaas::NaiveResult>& v) {
  for (const auto& r : v) {
    d.add(r.dataset_id).add(r.lr_f).add(r.dt_f).add(static_cast<int>(r.chosen)).add(r.naive_f);
  }
}

void add_result(Digest& d, const mlaas::NaiveComparison& c) {
  d.add(c.platform).add(as_u64(c.n_datasets)).add(as_u64(c.naive_wins));
  for (const auto& row : c.wins_breakdown) {
    for (std::size_t n : row) d.add(as_u64(n));
  }
  d.add(c.win_gaps).add(c.switch_gaps).add(as_u64(c.switching_is_best));
}

}  // namespace perfbench
