// The service-backed measurement campaign: parity with the direct-call
// runner, failure accounting under faults/quotas, determinism, telemetry,
// and cache fingerprinting.
#include "eval/measurement.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include "data/generators.h"
#include "data/split.h"
#include "util/rng.h"

namespace mlaas {
namespace {

MeasurementOptions fast_options() {
  MeasurementOptions opt;
  opt.seed = 42;
  opt.max_para_configs = 4;
  opt.joint_sample = 5;
  opt.threads = 2;
  return opt;
}

std::vector<Dataset> tiny_corpus() {
  std::vector<Dataset> corpus;
  corpus.push_back(make_blobs(80, 3, 1.0, 5.0, 1));
  corpus.back().meta().id = "blob-0";
  corpus.push_back(make_circles(80, 0.08, 0.5, 2));
  corpus.back().meta().id = "circle-0";
  return corpus;
}

std::vector<PlatformPtr> small_roster() {
  std::vector<PlatformPtr> platforms;
  platforms.push_back(make_platform("Google"));
  platforms.push_back(make_platform("Amazon"));
  platforms.push_back(make_platform("PredictionIO"));
  return platforms;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

std::vector<std::string> split_fields(const std::string& line, char sep) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (std::size_t end; (end = line.find(sep, start)) != std::string::npos; start = end + 1) {
    fields.push_back(line.substr(start, end - start));
  }
  fields.push_back(line.substr(start));
  return fields;
}

constexpr const char* kCsvHeader14 =
    "dataset\tplatform\tfeat\tclf\tparams\tdefault\tf\tacc\tprec\trec\tsec\tpsec\tsig\t"
    "status\n";

TEST(RunCampaign, ZeroFaultRateMatchesDirectRunner) {
  const auto corpus = tiny_corpus();
  const auto platforms = small_roster();
  const MeasurementOptions options = fast_options();

  // The seed's direct-call runner: measure_one per (dataset, platform,
  // config), in the same order the campaign emits rows.
  MeasurementTable direct;
  for (const auto& dataset : corpus) {
    for (const auto& platform : platforms) {
      for (const auto& config : enumerate_configs(*platform, options)) {
        if (auto m = measure_one(dataset, *platform, config, options)) {
          if (m->ok) direct.add(std::move(*m));
        }
      }
    }
  }

  const CampaignResult campaign = run_campaign(corpus, platforms, options);
  ASSERT_EQ(campaign.table.failures().size(), 0u);
  ASSERT_EQ(campaign.table.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    const auto& a = direct.rows()[i];
    const auto& b = campaign.table.rows()[i];
    EXPECT_EQ(a.dataset_id, b.dataset_id);
    EXPECT_EQ(a.platform, b.platform);
    EXPECT_EQ(a.feature_step, b.feature_step);
    EXPECT_EQ(a.classifier, b.classifier);
    EXPECT_EQ(a.params, b.params);
    EXPECT_EQ(a.default_params, b.default_params);
    EXPECT_DOUBLE_EQ(a.test.f_score, b.test.f_score);
    EXPECT_DOUBLE_EQ(a.test.accuracy, b.test.accuracy);
    EXPECT_EQ(a.label_signature, b.label_signature);
  }
}

TEST(RunCampaign, TelemetryCountsRequests) {
  const auto corpus = tiny_corpus();
  const auto platforms = small_roster();
  const MeasurementOptions options = fast_options();
  const CampaignResult result = run_campaign(corpus, platforms, options);
  // `predictions` counts ROWS scored (the admission path's per-sample unit),
  // so each ok cell contributes its dataset's test-split rows.
  const auto split = train_test_split(
      corpus[0], options.test_fraction,
      derive_seed(options.seed, "split-" + corpus[0].meta().id), /*stratified=*/true);
  const std::size_t test_rows = split.test.n_samples();  // both datasets: 80 samples
  ASSERT_EQ(result.report.platforms.size(), 3u);
  for (const auto& p : result.report.platforms) {
    // One upload per dataset, one train + one predict per measured cell.
    EXPECT_EQ(p.service.uploads, corpus.size());
    EXPECT_EQ(p.service.trainings, p.cells_ok);
    EXPECT_EQ(p.service.predictions, p.cells_ok * test_rows);
    EXPECT_GE(p.service.requests, p.service.uploads + 2 * p.cells_ok);
    EXPECT_GT(p.simulated_seconds, 0.0);
    EXPECT_DOUBLE_EQ(p.coverage(), 1.0);
    // Steady state: every handle the campaign created was released again.
    EXPECT_EQ(p.service.models_deleted, p.service.trainings);
    EXPECT_EQ(p.service.datasets_deleted, p.service.uploads);
  }
}

TEST(RunCampaign, FaultyCampaignCompletesAndRecordsFailures) {
  MeasurementOptions options = fast_options();
  options.campaign.fault_rate = 0.6;
  options.campaign.retry_budget = 2;  // tight budget so some cells fail
  const CampaignResult result = run_campaign(tiny_corpus(), small_roster(), options);
  const PlatformCampaignStats total = result.report.totals();
  EXPECT_GT(total.cells_failed, 0u);
  EXPECT_GT(total.retries, 0u);
  EXPECT_LT(result.report.coverage(), 1.0);
  // Failure rows are structured, not dropped: step:status strings.
  const MeasurementTable failed = result.table.failures();
  ASSERT_GT(failed.size(), 0u);
  for (const auto& m : failed.rows()) {
    EXPECT_FALSE(m.ok);
    EXPECT_NE(m.failure.find(':'), std::string::npos) << m.failure;
  }
  // And excluded from aggregation helpers.
  for (const auto* best : result.table.best_per_dataset()) EXPECT_TRUE(best->ok);
}

TEST(RunCampaign, FaultyCampaignIsDeterministicAcrossThreadCounts) {
  MeasurementOptions serial = fast_options();
  serial.campaign.fault_rate = 0.3;
  serial.campaign.retry_budget = 3;
  serial.threads = 1;
  MeasurementOptions parallel = serial;
  parallel.threads = 4;
  const auto a = run_campaign(tiny_corpus(), small_roster(), serial);
  const auto b = run_campaign(tiny_corpus(), small_roster(), parallel);
  ASSERT_EQ(a.table.size(), b.table.size());
  for (std::size_t i = 0; i < a.table.size(); ++i) {
    const auto& ra = a.table.rows()[i];
    const auto& rb = b.table.rows()[i];
    EXPECT_EQ(ra.params, rb.params);
    EXPECT_EQ(ra.ok, rb.ok);
    EXPECT_EQ(ra.failure, rb.failure);
    EXPECT_DOUBLE_EQ(ra.test.f_score, rb.test.f_score);
  }
  const auto ta = a.report.totals();
  const auto tb = b.report.totals();
  EXPECT_EQ(ta.service.transient_errors, tb.service.transient_errors);
  EXPECT_EQ(ta.retries, tb.retries);
  EXPECT_EQ(ta.cells_failed, tb.cells_failed);
}

TEST(RunCampaign, FreeTierQuotaExhaustionIsRecorded) {
  MeasurementOptions options = fast_options();
  options.max_para_configs = 20;  // Amazon's full grid (18) > free-tier quota
  options.campaign.quota_profile = "free-tier";  // 10 training jobs/session
  std::vector<PlatformPtr> platforms;
  platforms.push_back(make_platform("Amazon"));
  const auto corpus = tiny_corpus();
  const CampaignResult result = run_campaign(corpus, platforms, options);
  const auto& amazon = result.report.platforms[0];
  ASSERT_GT(amazon.cells_total / corpus.size(), 10u)
      << "test needs more configs than the free-tier training quota";
  EXPECT_EQ(amazon.service.trainings, 10u * corpus.size());
  EXPECT_GT(amazon.cells_failed, 0u);
  EXPECT_EQ(amazon.failures_by_status.count("train:quota-exhausted"), 1u);
  // Successful cells are bit-identical to an unconstrained campaign.
  MeasurementOptions unconstrained = options;
  unconstrained.campaign = CampaignOptions{};
  const CampaignResult free_run = run_campaign(corpus, platforms, unconstrained);
  const MeasurementTable measured = result.table.succeeded();
  for (const auto& m : measured.rows()) {
    bool found = false;
    for (const auto& f : free_run.table.rows()) {
      if (f.dataset_id == m.dataset_id && f.params == m.params &&
          f.classifier == m.classifier && f.feature_step == m.feature_step) {
        EXPECT_DOUBLE_EQ(f.test.f_score, m.test.f_score);
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(RunCampaign, StrictProfileStallsButCompletes) {
  MeasurementOptions options = fast_options();
  options.campaign.quota_profile = "strict";  // 5 requests/min
  std::vector<PlatformPtr> platforms;
  platforms.push_back(make_platform("Amazon"));
  const CampaignResult result = run_campaign(tiny_corpus(), platforms, options);
  const auto& amazon = result.report.platforms[0];
  // Rate limits stall the campaign (Retry-After waits) but drop no cells.
  EXPECT_GT(amazon.service.rate_limited, 0u);
  EXPECT_GT(amazon.backoff_seconds, 0.0);
  EXPECT_EQ(amazon.cells_failed, 0u);
  EXPECT_DOUBLE_EQ(result.report.coverage(), 1.0);
}

TEST(CampaignReport, TsvRowsMatchTheReportAndJsonWritten) {
  MeasurementOptions options = fast_options();
  options.campaign.fault_rate = 0.5;
  options.campaign.retry_budget = 2;
  const CampaignResult result = run_campaign(tiny_corpus(), small_roster(), options);
  const std::string tsv = ::testing::TempDir() + "/campaign_report.tsv";
  const std::string json = ::testing::TempDir() + "/campaign_report.json";
  result.report.save_tsv(tsv);
  result.report.save_json(json);
  // Header, one 23-column row per platform in roster order, the scheduler
  // trailer; each row carries its platform's counters and failure breakdown.
  const auto lines = split_fields(read_file(tsv), '\n');
  ASSERT_EQ(lines.size(), result.report.platforms.size() + 3);  // + trailing ""
  EXPECT_EQ(lines[0].rfind("platform\tcells_total\t", 0), 0u) << lines[0];
  bool any_failure = false;
  for (std::size_t i = 0; i < result.report.platforms.size(); ++i) {
    const auto& p = result.report.platforms[i];
    const auto fields = split_fields(lines[i + 1], '\t');
    ASSERT_EQ(fields.size(), 23u) << lines[i + 1];
    EXPECT_EQ(fields[0], p.platform);
    EXPECT_EQ(fields[2], std::to_string(p.cells_ok));
    EXPECT_EQ(fields[3], std::to_string(p.cells_failed));
    EXPECT_EQ(fields[7], std::to_string(p.service.requests));
    EXPECT_EQ(fields[15], std::to_string(p.retries));
    std::string failures;
    for (const auto& [status, count] : p.failures_by_status) {
      failures += (failures.empty() ? "" : ";") + status + "=" + std::to_string(count);
    }
    EXPECT_EQ(fields[22], failures.empty() ? "-" : failures);
    any_failure = any_failure || !failures.empty();
  }
  EXPECT_TRUE(any_failure) << "a 0.5 fault rate with 2 attempts must fail some cells";
  EXPECT_EQ(lines[lines.size() - 2].rfind("# scheduler\tschedule=dynamic\tworkers=2\t", 0), 0u);
  // The JSON renders the same value: a platforms array carrying the TSV's
  // columns and the scheduler trailer as an object.
  const std::string text = read_file(json);
  EXPECT_EQ(text.rfind("{\n  \"platforms\": [\n    {\"platform\": ", 0), 0u) << text;
  EXPECT_NE(text.find("\"failures\": "), std::string::npos);
  EXPECT_NE(text.find("\"scheduler\": {\"schedule\": \"dynamic\", \"workers\": 2, "),
            std::string::npos) << text;
  std::remove(tsv.c_str());
  std::remove(json.c_str());
}

TEST(CampaignReport, SaveTsvBytesArePinned) {
  CampaignReport report;
  PlatformCampaignStats local;
  local.platform = "Local";
  local.cells_total = 10;
  local.cells_ok = 7;
  local.cells_failed = 2;
  local.cells_rejected = 1;
  local.cells_restored = 3;
  local.service.requests = 25;
  local.service.uploads = 1;
  local.service.trainings = 9;
  local.service.predictions = 700;
  local.service.rate_limited = 4;
  local.service.transient_errors = 2;
  local.service.server_errors = 1;
  local.service.train_cpu_seconds = 0.125;
  local.service.predict_cpu_seconds = 0.0625;
  local.retries = 6;
  local.backoff_seconds = 12.5;
  local.simulated_seconds = 345.25;
  local.failures_by_status = {{"train:quota-exhausted", 1}, {"predict:transient-error", 1}};
  PlatformCampaignStats google;
  google.platform = "Google";
  google.cells_total = 2;
  google.cells_ok = 1;
  google.cells_deferred = 1;
  google.service.requests = 3;
  google.service.uploads = 1;
  google.service.trainings = 1;
  google.service.predictions = 30;
  google.service.unavailable = 2;
  google.service.train_cpu_seconds = 0.01;
  google.service.predict_cpu_seconds = 0.002;
  google.retries = 2;
  google.breaker_trips = 1;
  google.backoff_seconds = 3.0;
  google.outage_seconds = 120.0;
  google.simulated_seconds = 1.0 / 3.0;
  report.platforms = {local, google};
  report.scheduler.schedule = "dynamic";
  report.scheduler.workers = 2;
  report.scheduler.sessions = 4;
  report.scheduler.sessions_stolen = 1;
  report.scheduler.makespan_seconds = 1.5;
  report.scheduler.worker_busy_seconds = {1.25, 0.75};
  report.trace_summary = "tracks=4 spans=12 instants=3";
  const std::string path = ::testing::TempDir() + "/campaign_report_pinned.tsv";
  report.save_tsv(path);
  EXPECT_EQ(read_file(path),
            "platform\tcells_total\tcells_ok\tcells_failed\tcells_rejected\tcells_deferred\t"
            "cells_restored\trequests\tuploads\ttrainings\tpredictions\trate_limited\t"
            "transient_errors\tserver_errors\tunavailable\tretries\tbreaker_trips\t"
            "backoff_sec\toutage_sec\tsimulated_sec\ttrain_cpu_sec\tpredict_cpu_sec\t"
            "failures\n"
            "Local\t10\t7\t2\t1\t0\t3\t25\t1\t9\t700\t4\t2\t1\t0\t6\t0\t12.5\t0\t345.25\t"
            "0.125\t0.0625\tpredict:transient-error=1;train:quota-exhausted=1\n"
            "Google\t2\t1\t0\t0\t1\t0\t3\t1\t1\t30\t0\t0\t0\t2\t2\t1\t3\t120\t"
            "0.3333333333\t0.01\t0.002\t-\n"
            "# scheduler\tschedule=dynamic\tworkers=2\tsessions=4\tstolen=1\tmakespan_sec=1.5\t"
            "busy_sec=2\timbalance=1.25\tworker_busy_sec=1.25;0.75\n"
            "# trace\ttracks=4 spans=12 instants=3\n");
  std::remove(path.c_str());
}

/// The report SaveTsvBytesArePinned writes, for the JSON pin.
CampaignReport pinned_report() {
  CampaignReport report;
  PlatformCampaignStats local;
  local.platform = "Local";
  local.cells_total = 10;
  local.cells_ok = 7;
  local.cells_failed = 2;
  local.cells_rejected = 1;
  local.cells_restored = 3;
  local.service.requests = 25;
  local.service.uploads = 1;
  local.service.trainings = 9;
  local.service.predictions = 700;
  local.service.rate_limited = 4;
  local.service.transient_errors = 2;
  local.service.server_errors = 1;
  local.service.train_cpu_seconds = 0.125;
  local.service.predict_cpu_seconds = 0.0625;
  local.retries = 6;
  local.backoff_seconds = 12.5;
  local.simulated_seconds = 345.25;
  local.failures_by_status = {{"train:quota-exhausted", 1}, {"predict:transient-error", 1}};
  PlatformCampaignStats google;
  google.platform = "Google";
  google.cells_total = 2;
  google.cells_ok = 1;
  google.cells_deferred = 1;
  google.service.requests = 3;
  google.service.uploads = 1;
  google.service.trainings = 1;
  google.service.predictions = 30;
  google.service.unavailable = 2;
  google.service.train_cpu_seconds = 0.01;
  google.service.predict_cpu_seconds = 0.002;
  google.retries = 2;
  google.breaker_trips = 1;
  google.backoff_seconds = 3.0;
  google.outage_seconds = 120.0;
  google.simulated_seconds = 1.0 / 3.0;
  report.platforms = {local, google};
  report.scheduler.schedule = "dynamic";
  report.scheduler.workers = 2;
  report.scheduler.sessions = 4;
  report.scheduler.sessions_stolen = 1;
  report.scheduler.makespan_seconds = 1.5;
  report.scheduler.worker_busy_seconds = {1.25, 0.75};
  report.trace_summary = "tracks=4 spans=12 instants=3";
  return report;
}

TEST(CampaignReport, SaveJsonBytesArePinned) {
  // The generic rendering of the value the TSV pin writes: one object per
  // platform row keyed by the TSV columns, the scheduler trailer as an
  // object and the bare trace trailer as a string.
  const std::string path = ::testing::TempDir() + "/campaign_report_pinned.json";
  pinned_report().save_json(path);
  EXPECT_EQ(read_file(path),
            "{\n"
            "  \"platforms\": [\n"
            "    {\"platform\": \"Local\", \"cells_total\": 10, \"cells_ok\": 7, "
            "\"cells_failed\": 2, \"cells_rejected\": 1, \"cells_deferred\": 0, "
            "\"cells_restored\": 3, \"requests\": 25, \"uploads\": 1, \"trainings\": 9, "
            "\"predictions\": 700, \"rate_limited\": 4, \"transient_errors\": 2, "
            "\"server_errors\": 1, \"unavailable\": 0, \"retries\": 6, \"breaker_trips\": 0, "
            "\"backoff_sec\": 12.5, \"outage_sec\": 0, \"simulated_sec\": 345.25, "
            "\"train_cpu_sec\": 0.125, \"predict_cpu_sec\": 0.0625, "
            "\"failures\": \"predict:transient-error=1;train:quota-exhausted=1\"},\n"
            "    {\"platform\": \"Google\", \"cells_total\": 2, \"cells_ok\": 1, "
            "\"cells_failed\": 0, \"cells_rejected\": 0, \"cells_deferred\": 1, "
            "\"cells_restored\": 0, \"requests\": 3, \"uploads\": 1, \"trainings\": 1, "
            "\"predictions\": 30, \"rate_limited\": 0, \"transient_errors\": 0, "
            "\"server_errors\": 0, \"unavailable\": 2, \"retries\": 2, \"breaker_trips\": 1, "
            "\"backoff_sec\": 3, \"outage_sec\": 120, \"simulated_sec\": 0.3333333333, "
            "\"train_cpu_sec\": 0.01, \"predict_cpu_sec\": 0.002, \"failures\": \"-\"}\n"
            "  ],\n"
            "  \"scheduler\": {\"schedule\": \"dynamic\", \"workers\": 2, \"sessions\": 4, "
            "\"stolen\": 1, \"makespan_sec\": 1.5, \"busy_sec\": 2, \"imbalance\": 1.25, "
            "\"worker_busy_sec\": \"1.25;0.75\"},\n"
            "  \"trace\": \"tracks=4 spans=12 instants=3\"\n"
            "}\n");
  // The scheduler trailer has the TSV's gate: no pool, no trailer.
  CampaignReport unpooled = pinned_report();
  unpooled.scheduler.workers = 0;
  std::ostringstream json;
  unpooled.sidecar().write_json(json);
  EXPECT_EQ(json.str().find("\"scheduler\""), std::string::npos) << json.str();
  std::remove(path.c_str());
}

TEST(RunOrLoad, FingerprintMismatchForcesRerun) {
  auto platforms = small_roster();
  const std::string path = ::testing::TempDir() + "/mlaas_fingerprint_test.tsv";
  std::remove(path.c_str());
  const auto corpus2 = tiny_corpus();
  const auto table2 = run_or_load(corpus2, platforms, fast_options(), path);
  EXPECT_EQ(table2.dataset_ids().size(), 2u);
  // Same fingerprint: the cache is reused.
  const auto again = run_or_load(corpus2, platforms, fast_options(), path);
  EXPECT_EQ(again.size(), table2.size());
  // Smaller corpus -> different fingerprint -> the stale cache (which has 2
  // datasets) must NOT be reused.
  std::vector<Dataset> corpus1;
  corpus1.push_back(corpus2[0]);
  MeasurementOptions quiet = fast_options();
  quiet.verbose = false;
  const auto table1 = run_or_load(corpus1, platforms, quiet, path);
  EXPECT_EQ(table1.dataset_ids().size(), 1u);
  std::remove(path.c_str());
  std::remove((path + ".campaign.tsv").c_str());
  std::remove((path + ".campaign.json").c_str());
}

TEST(RunOrLoad, CorruptCacheIsDiscardedNotFatal) {
  auto platforms = small_roster();
  const std::string path = ::testing::TempDir() + "/mlaas_corrupt_cache.tsv";
  const auto corpus = tiny_corpus();
  MeasurementOptions quiet = fast_options();
  quiet.verbose = false;
  const auto fresh = run_or_load(corpus, platforms, quiet, path);
  // Truncate a row mid-line, keeping the valid fingerprint header.
  {
    std::ifstream in(path);
    std::string header1, header2;
    std::getline(in, header1);
    std::getline(in, header2);
    in.close();
    std::ofstream out(path);
    out << header1 << '\n' << header2 << '\n' << "blob-0\tGoogle\ttrunc";
  }
  const auto recovered = run_or_load(corpus, platforms, quiet, path);
  EXPECT_EQ(recovered.size(), fresh.size());
  // A cache truncated right after the header parses as a valid empty table
  // with a matching fingerprint; it must still be discarded and re-run.
  {
    std::ifstream in(path);
    std::string header1, header2;
    std::getline(in, header1);
    std::getline(in, header2);
    in.close();
    std::ofstream out(path);
    out << header1 << '\n' << header2 << '\n';
  }
  const auto refilled = run_or_load(corpus, platforms, quiet, path);
  EXPECT_EQ(refilled.size(), fresh.size());
  std::remove(path.c_str());
  std::remove((path + ".campaign.tsv").c_str());
  std::remove((path + ".campaign.json").c_str());
}

TEST(MeasurementCsv, MalformedRowsThrowWithLineNumber) {
  const std::string path = ::testing::TempDir() + "/mlaas_malformed.tsv";
  {
    std::ofstream out(path);
    out << kCsvHeader14;
    out << "d1\tLocal\tnone\tmlp\t\t1\t0.9\t0.8\t0.7\t0.6\t0.1\t0.05\t01\tok\n";
    out << "d1\tLocal\tshort\n";  // truncated row
  }
  try {
    MeasurementTable::load_csv(path);
    FAIL() << "expected malformed row to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(":3"), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

TEST(MeasurementCsv, NonNumericFieldThrowsWithLineNumber) {
  const std::string path = ::testing::TempDir() + "/mlaas_badnum.tsv";
  {
    std::ofstream out(path);
    out << kCsvHeader14;
    out << "d1\tLocal\tnone\tmlp\t\t1\tnot-a-number\t0.8\t0.7\t0.6\t0.1\t0.05\t01\tok\n";
  }
  try {
    MeasurementTable::load_csv(path);
    FAIL() << "expected bad numeric field to throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(":2"), std::string::npos) << what;
    EXPECT_NE(what.find("'f'"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(MeasurementCsv, HeaderMustMatch) {
  // The line after the fingerprint must be the exact column header: a
  // missing header used to swallow the first row, and a pre-psec
  // (13-column) cache used to load with every predict_seconds zeroed.
  const std::string path = ::testing::TempDir() + "/mlaas_header.tsv";
  const std::string row = "d1\tLocal\tnone\tmlp\t\t1\t0.9\t0.8\t0.7\t0.6\t0.1\t0.05\t01\tok\n";
  const std::string headerless = "# fp\n" + row + row;
  const std::string pre_psec =
      "# fp\ndataset\tplatform\tfeat\tclf\tparams\tdefault\tf\tacc\tprec\trec\tsec\tsig"
      "\tstatus\nd1\tLocal\tnone\tmlp\t\t1\t0.9\t0.8\t0.7\t0.6\t0.1\t01\tok\n";
  for (const std::string& content : {headerless, pre_psec}) {
    std::ofstream(path) << content;
    try {
      MeasurementTable::load_csv(path);
      ADD_FAILURE() << "expected a header error for:\n" << content;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path + ":2"), std::string::npos) << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(MeasurementCsv, FailureRowsRoundTrip) {
  MeasurementTable table;
  Measurement ok;
  ok.dataset_id = "d1";
  ok.platform = "Local";
  ok.feature_step = "none";
  ok.classifier = "mlp";
  ok.test.f_score = 0.9;
  ok.label_signature = "01";
  table.add(ok);
  Measurement failed = ok;
  failed.ok = false;
  failed.failure = "train:transient-error";
  failed.test = {};
  failed.label_signature.clear();
  table.add(failed);

  const std::string path = ::testing::TempDir() + "/mlaas_failure_rows.tsv";
  table.save_csv(path, "test-fingerprint v2");
  std::string fingerprint;
  const auto loaded = MeasurementTable::load_csv(path, &fingerprint);
  EXPECT_EQ(fingerprint, "test-fingerprint v2");
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_TRUE(loaded.rows()[0].ok);
  EXPECT_FALSE(loaded.rows()[1].ok);
  EXPECT_EQ(loaded.rows()[1].failure, "train:transient-error");
  EXPECT_EQ(loaded.succeeded().size(), 1u);
  EXPECT_EQ(loaded.failures().size(), 1u);
  std::remove(path.c_str());
}

TEST(CircuitBreakerTest, OpensAfterThresholdProbesThenLatches) {
  BreakerOptions options;
  options.enabled = true;
  options.failure_threshold = 3;
  options.cooldown_seconds = 100.0;
  options.max_probes = 2;
  CircuitBreaker breaker(options);
  EXPECT_EQ(breaker.admit(0.0), CircuitBreaker::Decision::kProceed);
  breaker.record_failure(1.0);
  breaker.record_failure(2.0);
  EXPECT_EQ(breaker.admit(2.5), CircuitBreaker::Decision::kProceed);
  breaker.record_failure(3.0);  // third consecutive failure: trip
  EXPECT_TRUE(breaker.open());
  EXPECT_EQ(breaker.trips(), 1u);
  // Open, cooldown still running: admission is time-aware and says wait.
  EXPECT_EQ(breaker.admit(3.5), CircuitBreaker::Decision::kWait);
  EXPECT_DOUBLE_EQ(breaker.probe_wait_seconds(3.5), 99.5);
  EXPECT_EQ(breaker.admit(103.0), CircuitBreaker::Decision::kProbe);
  breaker.record_failure(103.5);  // probe 1 fails: re-trip, cooldown restarts
  EXPECT_EQ(breaker.trips(), 2u);
  EXPECT_EQ(breaker.admit(104.0), CircuitBreaker::Decision::kWait);
  EXPECT_EQ(breaker.admit(203.5), CircuitBreaker::Decision::kProbe);
  breaker.record_failure(204.0);  // probe 2 fails: out of probes
  EXPECT_EQ(breaker.admit(300.0), CircuitBreaker::Decision::kDefer);
  EXPECT_EQ(breaker.admit(1e9), CircuitBreaker::Decision::kDefer) << "latched open";
}

TEST(CircuitBreakerTest, CooldownExpiryFlipsWaitToProbe) {
  BreakerOptions options;
  options.enabled = true;
  options.failure_threshold = 1;
  options.cooldown_seconds = 50.0;
  CircuitBreaker breaker(options);
  breaker.record_failure(10.0);  // trip at t=10; cooldown runs until t=60
  ASSERT_TRUE(breaker.open());
  EXPECT_EQ(breaker.admit(10.0), CircuitBreaker::Decision::kWait);
  EXPECT_EQ(breaker.admit(59.999), CircuitBreaker::Decision::kWait);
  EXPECT_DOUBLE_EQ(breaker.probe_wait_seconds(30.0), 30.0);
  EXPECT_EQ(breaker.admit(60.0), CircuitBreaker::Decision::kProbe) << "boundary";
  EXPECT_EQ(breaker.admit(1e6), CircuitBreaker::Decision::kProbe);
  EXPECT_DOUBLE_EQ(breaker.probe_wait_seconds(60.0), 0.0);
}

TEST(CircuitBreakerTest, SuccessfulProbeClosesTheBreaker) {
  BreakerOptions options;
  options.enabled = true;
  options.failure_threshold = 2;
  options.cooldown_seconds = 10.0;
  CircuitBreaker breaker(options);
  breaker.record_failure(1.0);
  breaker.record_failure(2.0);
  ASSERT_TRUE(breaker.open());
  ASSERT_EQ(breaker.admit(3.0), CircuitBreaker::Decision::kWait) << "cooling down";
  ASSERT_EQ(breaker.admit(12.0), CircuitBreaker::Decision::kProbe);
  breaker.record_success();  // the half-open probe succeeded
  EXPECT_FALSE(breaker.open());
  EXPECT_EQ(breaker.admit(13.0), CircuitBreaker::Decision::kProceed);
  // Fully recovered: it takes a fresh run of consecutive failures to re-trip.
  breaker.record_failure(14.0);
  EXPECT_FALSE(breaker.open());
}

TEST(CircuitBreakerTest, DisabledBreakerNeverTrips) {
  CircuitBreaker breaker(BreakerOptions{});  // enabled = false
  for (int i = 0; i < 20; ++i) breaker.record_failure(i);
  EXPECT_FALSE(breaker.open());
  EXPECT_EQ(breaker.trips(), 0u);
  EXPECT_EQ(breaker.admit(100.0), CircuitBreaker::Decision::kProceed);
}

TEST(RunCampaign, BreakersDeferCellsDeterministically) {
  MeasurementOptions options = fast_options();
  options.campaign.fault_rate = 0.9;
  options.campaign.retry_budget = 1;
  options.campaign.breaker.enabled = true;
  options.campaign.breaker.failure_threshold = 2;
  options.campaign.breaker.cooldown_seconds = 600.0;
  options.campaign.breaker.max_probes = 1;
  const CampaignResult result = run_campaign(tiny_corpus(), small_roster(), options);
  const PlatformCampaignStats total = result.report.totals();
  EXPECT_GT(total.cells_deferred, 0u);
  EXPECT_GT(total.breaker_trips, 0u);
  // Deferred rows are a distinct status: not ok, not a step failure, and
  // excluded from both aggregation and the failure breakdown.
  const MeasurementTable deferred = result.table.deferred();
  EXPECT_EQ(deferred.size(), total.cells_deferred);
  for (const auto& m : deferred.rows()) {
    EXPECT_FALSE(m.ok);
    EXPECT_EQ(m.failure, kDeferredStatus);
    EXPECT_TRUE(m.deferred());
  }
  for (const auto* best : result.table.best_per_dataset()) EXPECT_TRUE(best->ok);
  EXPECT_LT(result.report.coverage(), 1.0);

  // Breakers are scoped per (dataset, platform) session, so the outcome
  // cannot depend on the thread count.
  MeasurementOptions parallel = options;
  parallel.threads = 4;
  MeasurementOptions serial = options;
  serial.threads = 1;
  const auto a = run_campaign(tiny_corpus(), small_roster(), serial);
  const auto b = run_campaign(tiny_corpus(), small_roster(), parallel);
  ASSERT_EQ(a.table.size(), b.table.size());
  for (std::size_t i = 0; i < a.table.size(); ++i) {
    EXPECT_EQ(a.table.rows()[i].ok, b.table.rows()[i].ok);
    EXPECT_EQ(a.table.rows()[i].failure, b.table.rows()[i].failure);
  }
  EXPECT_EQ(a.report.totals().cells_deferred, b.report.totals().cells_deferred);
  EXPECT_EQ(a.report.totals().breaker_trips, b.report.totals().breaker_trips);
}

TEST(RunCampaign, ChaosCampaignIsDeterministic) {
  MeasurementOptions options = fast_options();
  options.campaign.chaos_profile = "storm";
  options.campaign.fault_rate = 0.2;
  options.campaign.retry_budget = 2;
  const auto a = run_campaign(tiny_corpus(), small_roster(), options);
  const auto b = run_campaign(tiny_corpus(), small_roster(), options);
  ASSERT_EQ(a.table.size(), b.table.size());
  for (std::size_t i = 0; i < a.table.size(); ++i) {
    const auto& ra = a.table.rows()[i];
    const auto& rb = b.table.rows()[i];
    EXPECT_EQ(ra.params, rb.params);
    EXPECT_EQ(ra.ok, rb.ok);
    EXPECT_EQ(ra.failure, rb.failure);
    EXPECT_DOUBLE_EQ(ra.test.f_score, rb.test.f_score);
  }
  EXPECT_DOUBLE_EQ(a.report.totals().simulated_seconds,
                   b.report.totals().simulated_seconds);
  EXPECT_EQ(a.report.totals().service.unavailable, b.report.totals().service.unavailable);
}

TEST(RunCampaign, UnknownChaosProfileThrowsEagerly) {
  MeasurementOptions options = fast_options();
  options.campaign.chaos_profile = "tempest";
  EXPECT_THROW(run_campaign(tiny_corpus(), small_roster(), options),
               std::invalid_argument);
}

TEST(CampaignOptionsTest, QuotaProfilesResolve) {
  CampaignOptions campaign;
  campaign.fault_rate = 0.25;
  const ServiceQuota q = campaign.quota_for("Google");
  EXPECT_EQ(q.requests_per_window, 100u);
  EXPECT_DOUBLE_EQ(q.fault_rate, 0.25);
  campaign.quota_profile = "free-tier";
  EXPECT_EQ(campaign.quota_for("Amazon").max_training_jobs, 10u);
  campaign.quota_profile = "nope";
  EXPECT_THROW(campaign.quota_for("Amazon"), std::invalid_argument);
}

}  // namespace
}  // namespace mlaas
