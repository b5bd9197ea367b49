#include "platform/serving.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "platform/all_platforms.h"
#include "util/trace.h"

namespace mlaas {
namespace {

/// Small traced storm: enough faults, breaker trips and ladder walks to
/// touch every instrumented layer, small enough to run twice per test.
ServingWorkloadOptions storm_options(bool trace) {
  ServingWorkloadOptions options;
  options.seed = 42;
  options.requests = 400;
  options.arrival_rate = 50.0;
  options.serving.fault_rate = 0.1;
  options.serving.chaos_profile = "storm";
  options.serving.deadline_seconds = 30.0;
  options.serving.fallback_platform = "Google";
  options.serving.serve_last_known_good = true;
  options.serving.breaker.enabled = true;
  options.serving.breaker.failure_threshold = 3;
  options.serving.breaker.cooldown_seconds = 120.0;
  options.serving.breaker.max_probes = 4;
  options.serving.trace = trace;
  return options;
}

std::vector<ServingTenantSpec> storm_tenants() {
  return make_serving_tenants(
      4, {"Local", "Google", "Amazon", "BigML"}, /*seed=*/42);
}

std::string chrome_json(const Trace& trace) {
  std::ostringstream out;
  trace.write_chrome_json(out);
  return out.str();
}

/// Drop every "# trace\t..." trailer line from a TSV report.
std::string strip_trace_trailer(const std::string& tsv) {
  std::istringstream in(tsv);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# trace\t", 0) == 0) continue;
    out << line << '\n';
  }
  return out.str();
}

TEST(ServingTrace, ChromeJsonByteIdenticalAcrossReruns) {
  const auto tenants = storm_tenants();
  const auto options = storm_options(/*trace=*/true);
  const ServingWorkloadResult a = run_serving_workload(tenants, options);
  const ServingWorkloadResult b = run_serving_workload(tenants, options);
  ASSERT_NE(a.trace, nullptr);
  ASSERT_NE(b.trace, nullptr);
  EXPECT_GT(a.trace->event_count(), 0u);
  EXPECT_EQ(chrome_json(*a.trace), chrome_json(*b.trace));
}

TEST(ServingTrace, SpansCoverEveryInstrumentedLayer) {
  // One storm run must leave footprints from all layers: service call spans
  // and retry waits on the platform tracks, breaker transitions, the
  // router's flush spans and degradation-ladder rung annotations.  The full
  // bench-sized storm: 400 requests end before the first breaker trips.
  ServingWorkloadOptions options = storm_options(/*trace=*/true);
  options.requests = 2000;
  const ServingWorkloadResult run = run_serving_workload(storm_tenants(), options);
  ASSERT_NE(run.trace, nullptr);
  const std::string json = chrome_json(*run.trace);
  EXPECT_NE(json.find("\"cat\":\"service\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"retry\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"breaker\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"serving\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"ladder\""), std::string::npos);
  EXPECT_NE(json.find("rung:"), std::string::npos);
  // Track layout: router first, then one track per roster platform.
  EXPECT_NE(json.find("\"name\":\"router\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"service:Local\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"service:Google\""), std::string::npos);
  // The summary trailer mirrors the trace.
  EXPECT_EQ(run.report.trace_summary, run.trace->summary());
  EXPECT_NE(run.report.trace_summary.find("cat:serving="), std::string::npos);
}

TEST(ServingTrace, TracingOffLeavesReportBytesIdentical) {
  // The observability layer must be a pure read: with trace off the report
  // bytes match the pre-trace format exactly, and with trace on they differ
  // only by the "# trace" trailer line.
  const auto tenants = storm_tenants();
  const ServingWorkloadResult off =
      run_serving_workload(tenants, storm_options(/*trace=*/false));
  const ServingWorkloadResult on =
      run_serving_workload(tenants, storm_options(/*trace=*/true));
  ASSERT_EQ(off.trace, nullptr);
  EXPECT_TRUE(off.report.trace_summary.empty());

  std::ostringstream off_tsv, on_tsv;
  off.report.write_tsv(off_tsv);
  on.report.write_tsv(on_tsv);
  EXPECT_EQ(off_tsv.str().find("# trace"), std::string::npos);
  EXPECT_NE(on_tsv.str().find("# trace\t"), std::string::npos);
  EXPECT_EQ(strip_trace_trailer(on_tsv.str()), off_tsv.str());
  EXPECT_NE(on_tsv.str(), off_tsv.str());
}

/// The value under `column` in row `row` of a report sidecar.
const Sidecar::Value& cell(const Sidecar& s, std::size_t row, const std::string& column) {
  const auto it = std::find(s.columns.begin(), s.columns.end(), column);
  return s.rows.at(row).at(static_cast<std::size_t>(it - s.columns.begin()));
}

TEST(ServingTrace, ReportSidecarCoversTotalsAndTenants) {
  const ServingWorkloadResult run =
      run_serving_workload(storm_tenants(), storm_options(/*trace=*/false));
  const ServingReport& report = run.report;
  const Sidecar s = report.sidecar();
  // Tenant rows in open order, then TOTAL; the router counters in the
  // serving trailer; the storm's resilience trailer; the bare histogram.
  ASSERT_EQ(s.rows.size(), report.tenants.size() + 1);
  for (std::size_t i = 0; i < report.tenants.size(); ++i) {
    const TenantServingStats& t = report.tenants[i];
    EXPECT_EQ(std::get<std::string>(cell(s, i, "tenant")), t.tenant);
    EXPECT_EQ(std::get<std::size_t>(cell(s, i, "requests")), t.requests);
    EXPECT_EQ(std::get<std::size_t>(cell(s, i, "ok")), t.ok);
  }
  const std::size_t total = report.tenants.size();
  EXPECT_EQ(std::get<std::string>(cell(s, total, "tenant")), "TOTAL");
  EXPECT_EQ(std::get<std::size_t>(cell(s, total, "requests")), report.totals.requests);
  ASSERT_EQ(s.trailers.size(), 3u);
  EXPECT_EQ(s.trailers[0].name, "serving");
  EXPECT_EQ(s.trailers[0].fields[0].key, "batches");
  EXPECT_EQ(std::get<std::size_t>(s.trailers[0].fields[0].value), report.totals.batches);
  EXPECT_EQ(s.trailers[1].name, "resilience");
  EXPECT_EQ(s.trailers[2].name, "histogram");
  EXPECT_EQ(std::get<std::string>(s.trailers[2].fields.at(0).value),
            report.totals.latency.encode());
  // Built from the report alone: building it again writes the same bytes.
  std::ostringstream first, second;
  s.write_json(first);
  report.sidecar().write_json(second);
  EXPECT_EQ(first.str(), second.str());
}

// -- Satellite: CLI-facing knob validation (mirrors the --threads fix).

TEST(ServingTrace, ValidateOptionsAcceptsDefaults) {
  EXPECT_NO_THROW(validate_serving_options(ServingOptions{}));
}

TEST(ServingTrace, ValidateOptionsRejectsEachBadKnob) {
  // The router constructor applies the same rule: it neither clamps a bad
  // knob nor builds a router around it.
  std::vector<PlatformPtr> roster;
  roster.push_back(make_platform("Local"));
  const auto expect_rejected = [&](auto mutate, const std::string& needle) {
    ServingOptions o;
    mutate(o);
    const auto expect_throws = [&](auto call, const std::string& entry) {
      try {
        call();
        ADD_FAILURE() << entry << ": expected std::invalid_argument mentioning " << needle;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << entry << ": " << e.what();
      }
    };
    expect_throws([&] { validate_serving_options(o); }, "validate_serving_options");
    expect_throws([&] { QueryRouter(roster, "default", 1, o); }, "QueryRouter");
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  expect_rejected([](ServingOptions& o) { o.max_batch_rows = 0; }, "--batch");
  expect_rejected([](ServingOptions& o) { o.linger_seconds = -0.5; }, "--linger");
  expect_rejected([&](ServingOptions& o) { o.linger_seconds = nan; }, "--linger");
  expect_rejected([](ServingOptions& o) { o.model_cache_capacity = 0; },
                  "--cache-capacity");
  expect_rejected([](ServingOptions& o) { o.deadline_seconds = -1.0; },
                  "--deadline-ms");
  expect_rejected([&](ServingOptions& o) { o.deadline_seconds = nan; },
                  "--deadline-ms");
  expect_rejected([](ServingOptions& o) { o.fault_rate = 1.5; }, "--fault-rate");
  expect_rejected([&](ServingOptions& o) { o.fault_rate = nan; }, "--fault-rate");
  expect_rejected([](ServingOptions& o) { o.retry.max_attempts = 0; },
                  "retry attempts");
  expect_rejected(
      [](ServingOptions& o) {
        o.breaker.enabled = true;
        o.breaker.failure_threshold = 0;
      },
      "--breaker-threshold");
  expect_rejected(
      [](ServingOptions& o) {
        o.breaker.enabled = true;
        o.breaker.cooldown_seconds = -1.0;
      },
      "--breaker-cooldown");
  expect_rejected(
      [](ServingOptions& o) {
        o.breaker.enabled = true;
        o.breaker.cooldown_seconds = std::numeric_limits<double>::infinity();
      },
      "--breaker-cooldown");
  expect_rejected(
      [](ServingOptions& o) {
        o.breaker.enabled = true;
        o.breaker.max_probes = -2;
      },
      "--breaker-probes");
}

TEST(ServingTrace, ValidateOptionsIgnoresBreakerKnobsWhenDisabled) {
  // Disabled breakers are never constructed, so their knobs are inert; the
  // validator must not reject configs that merely carry stale values.
  ServingOptions o;
  o.breaker.enabled = false;
  o.breaker.failure_threshold = 0;
  o.breaker.cooldown_seconds = -1.0;
  EXPECT_NO_THROW(validate_serving_options(o));
}

}  // namespace
}  // namespace mlaas
