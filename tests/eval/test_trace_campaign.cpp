// Campaign-level trace determinism (the tentpole's headline invariant):
// per-session tracks are assembled in canonical session order after the
// worker pool joins, and every timestamp comes off the per-session simulated
// clock — so the Chrome trace_event JSON must be byte-identical for every
// thread count, both schedules, and across reruns.  With tracing off the
// report bytes must match the pre-trace format exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "data/generators.h"
#include "eval/measurement.h"
#include "platform/all_platforms.h"
#include "util/trace.h"

namespace mlaas {
namespace {

MeasurementOptions traced_options(bool trace = true) {
  MeasurementOptions opt;
  opt.seed = 1234;
  opt.max_para_configs = 4;
  opt.joint_sample = 5;
  opt.verbose = false;
  opt.trace = trace;
  // Faults + breakers so retry waits and breaker transitions show up.
  opt.campaign.fault_rate = 0.2;
  opt.campaign.retry_budget = 2;
  opt.campaign.breaker.enabled = true;
  return opt;
}

std::vector<Dataset> skewed_corpus() {
  std::vector<Dataset> corpus;
  corpus.push_back(make_blobs(60, 3, 1.0, 5.0, 1));
  corpus.back().meta().id = "blob-0";
  corpus.push_back(make_circles(60, 0.08, 0.5, 2));
  corpus.back().meta().id = "circle-0";
  corpus.push_back(make_moons(240, 0.1, 3));
  corpus.back().meta().id = "moons-big";
  return corpus;
}

std::vector<PlatformPtr> small_roster() {
  std::vector<PlatformPtr> platforms;
  platforms.push_back(make_platform("Google"));
  platforms.push_back(make_platform("Amazon"));
  return platforms;
}

std::string traced_json(const MeasurementOptions& base, int threads,
                        Schedule schedule) {
  MeasurementOptions opt = base;
  opt.threads = threads;
  opt.schedule = schedule;
  const CampaignResult result = run_campaign(skewed_corpus(), small_roster(), opt);
  EXPECT_NE(result.trace, nullptr);
  if (result.trace == nullptr) return {};
  std::ostringstream out;
  result.trace->write_chrome_json(out);
  return out.str();
}

TEST(CampaignTrace, ChromeJsonInvariantAcrossThreadsSchedulesAndReruns) {
  const MeasurementOptions base = traced_options();
  const std::string reference = traced_json(base, 1, Schedule::kStatic);
  ASSERT_FALSE(reference.empty());
  for (const int threads : {1, 4, 16}) {
    for (const Schedule schedule : {Schedule::kStatic, Schedule::kDynamic}) {
      if (threads == 1 && schedule == Schedule::kStatic) continue;
      EXPECT_EQ(traced_json(base, threads, schedule), reference)
          << "trace differs at threads=" << threads
          << " schedule=" << to_string(schedule);
    }
  }
  // Same configuration, fresh run: byte-identical rerun.
  EXPECT_EQ(traced_json(base, 1, Schedule::kStatic), reference);
}

TEST(CampaignTrace, TracksAssembleInCanonicalSessionOrder) {
  MeasurementOptions opt = traced_options();
  opt.threads = 4;
  opt.schedule = Schedule::kDynamic;
  const CampaignResult result = run_campaign(skewed_corpus(), small_roster(), opt);
  ASSERT_NE(result.trace, nullptr);
  // One track per (dataset, platform) session, dataset-major — the same
  // canonical order the measurement table and journal use — regardless of
  // which worker actually ran each session.  Thread-name metadata records
  // lead the Chrome JSON in track order, so byte positions encode it.
  EXPECT_EQ(result.trace->track_count(), 6u);
  std::ostringstream out;
  result.trace->write_chrome_json(out);
  const std::string json = out.str();
  std::size_t last = 0;
  for (const char* name :
       {"session:blob-0|Google", "session:blob-0|Amazon",
        "session:circle-0|Google", "session:circle-0|Amazon",
        "session:moons-big|Google", "session:moons-big|Amazon"}) {
    const std::size_t at = json.find(std::string("\"name\":\"") + name + "\"");
    ASSERT_NE(at, std::string::npos) << name;
    EXPECT_GT(at, last) << name << " out of canonical order";
    last = at;
  }
  // Every layer left spans: service calls, retry waits, session spans.
  const std::string summary = result.report.trace_summary;
  EXPECT_NE(summary.find("cat:service="), std::string::npos);
  EXPECT_NE(summary.find("cat:campaign="), std::string::npos);
  EXPECT_NE(summary.find("cat:retry="), std::string::npos);
  EXPECT_EQ(summary, result.trace->summary());
}

TEST(CampaignTrace, TracingOffLeavesReportBytesIdentical) {
  // The observability layer must be write-only: with trace off, no trailer
  // and a null trace; with trace on, the TSV differs only by the "# trace"
  // trailer and the measurement table bytes do not move at all.
  MeasurementOptions off_opt = traced_options(/*trace=*/false);
  off_opt.threads = 2;
  MeasurementOptions on_opt = traced_options(/*trace=*/true);
  on_opt.threads = 2;
  const CampaignResult off = run_campaign(skewed_corpus(), small_roster(), off_opt);
  const CampaignResult on = run_campaign(skewed_corpus(), small_roster(), on_opt);
  EXPECT_EQ(off.trace, nullptr);
  EXPECT_TRUE(off.report.trace_summary.empty());
  ASSERT_NE(on.trace, nullptr);
  EXPECT_FALSE(on.report.trace_summary.empty());

  const std::string off_tsv = [&] {
    const std::string path = ::testing::TempDir() + "trace_off.campaign.tsv";
    off.report.save_tsv(path);
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }();
  const std::string on_tsv = [&] {
    const std::string path = ::testing::TempDir() + "trace_on.campaign.tsv";
    on.report.save_tsv(path);
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }();
  EXPECT_EQ(off_tsv.find("# trace"), std::string::npos);
  ASSERT_NE(on_tsv.find("# trace\t"), std::string::npos);
  // Strip the trailer and mask the wall-clock columns (train-CPU seconds and
  // the scheduler telemetry line — real time, not simulated); every other
  // byte must match.
  auto masked_tsv = [](const std::string& tsv) {
    std::istringstream in(tsv);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("# trace\t", 0) == 0) continue;
      if (line.rfind("# scheduler\t", 0) == 0) {
        out << "# scheduler\tX\n";
        continue;
      }
      std::vector<std::string> fields;
      std::size_t start = 0;
      while (true) {
        const std::size_t tab = line.find('\t', start);
        if (tab == std::string::npos) {
          fields.push_back(line.substr(start));
          break;
        }
        fields.push_back(line.substr(start, tab - start));
        start = tab + 1;
      }
      if (fields.size() == 23) {
        fields[20] = "X";  // train_cpu_sec
        fields[21] = "X";  // predict_cpu_sec
      }
      for (std::size_t i = 0; i < fields.size(); ++i) {
        out << (i > 0 ? "\t" : "") << fields[i];
      }
      out << '\n';
    }
    return out.str();
  };
  EXPECT_EQ(masked_tsv(on_tsv), masked_tsv(off_tsv));

  // The measurement table itself is untouched by tracing (real-CPU-seconds
  // columns masked: the run-to-run nondeterministic fields).
  auto masked = [](const MeasurementTable& table) {
    std::ostringstream out;
    for (const auto& row : table.rows()) {
      Measurement copy = row;
      copy.train_seconds = 0.0;
      copy.predict_seconds = 0.0;
      out << measurement_row_to_tsv(copy) << '\n';
    }
    return out.str();
  };
  EXPECT_EQ(masked(on.table), masked(off.table));
}

TEST(CampaignTrace, TsvEndsWithTheTraceTrailer) {
  MeasurementOptions opt = traced_options();
  opt.threads = 2;
  const CampaignResult result = run_campaign(skewed_corpus(), small_roster(), opt);
  ASSERT_FALSE(result.report.trace_summary.empty());
  const std::string path = ::testing::TempDir() + "trace_trailer.campaign.tsv";
  result.report.save_tsv(path);
  std::ifstream in(path);
  const std::string tsv((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::string trailer = "\n# trace\t" + result.report.trace_summary + "\n";
  ASSERT_GE(tsv.size(), trailer.size());
  EXPECT_EQ(tsv.substr(tsv.size() - trailer.size()), trailer);
  std::remove(path.c_str());
}

/// The value under `column` in row `row` of a report sidecar.
const Sidecar::Value& cell(const Sidecar& s, std::size_t row, const std::string& column) {
  const auto it = std::find(s.columns.begin(), s.columns.end(), column);
  return s.rows.at(row).at(static_cast<std::size_t>(it - s.columns.begin()));
}

TEST(CampaignTrace, ReportSidecarCoversAllStats) {
  MeasurementOptions opt = traced_options(/*trace=*/false);
  opt.threads = 2;
  const CampaignResult result = run_campaign(skewed_corpus(), small_roster(), opt);
  const CampaignReport& report = result.report;
  const Sidecar s = report.sidecar();
  // One row per platform in roster order, each counter under its column,
  // then the scheduler trailer; no trace trailer when tracing was off.
  ASSERT_EQ(s.rows.size(), report.platforms.size());
  ASSERT_FALSE(s.rows.empty());
  for (std::size_t i = 0; i < s.rows.size(); ++i) {
    const PlatformCampaignStats& p = report.platforms[i];
    EXPECT_EQ(std::get<std::string>(cell(s, i, "platform")), p.platform);
    EXPECT_EQ(std::get<std::size_t>(cell(s, i, "cells_total")), p.cells_total);
    EXPECT_EQ(std::get<std::size_t>(cell(s, i, "cells_ok")), p.cells_ok);
    EXPECT_EQ(std::get<std::size_t>(cell(s, i, "requests")), p.service.requests);
    EXPECT_EQ(std::get<std::size_t>(cell(s, i, "retries")), p.retries);
    EXPECT_EQ(std::get<std::size_t>(cell(s, i, "breaker_trips")), p.breaker_trips);
    EXPECT_EQ(std::get<double>(cell(s, i, "simulated_sec")), p.simulated_seconds);
  }
  ASSERT_EQ(s.trailers.size(), 1u);
  const Sidecar::Trailer& scheduler = s.trailers[0];
  EXPECT_EQ(scheduler.name, "scheduler");
  ASSERT_EQ(scheduler.fields.size(), 8u);
  EXPECT_EQ(scheduler.fields[2].key, "sessions");
  EXPECT_EQ(std::get<std::size_t>(scheduler.fields[2].value), report.scheduler.sessions);
  // Built from the report alone: building it again writes the same bytes.
  std::ostringstream first, second;
  s.write_json(first);
  report.sidecar().write_json(second);
  EXPECT_EQ(first.str(), second.str());
}

}  // namespace
}  // namespace mlaas
