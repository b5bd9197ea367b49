// The session-level campaign scheduler: the measurement table and the
// write-ahead journal must be byte-identical for every thread count, for
// both schedules, and under chaos + breakers — the scheduler moves work
// between workers, never results.  Train-CPU seconds are the one
// run-to-run nondeterministic column and are masked before comparing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "data/generators.h"
#include "eval/journal.h"
#include "eval/measurement.h"

namespace mlaas {
namespace {

MeasurementOptions fast_options() {
  MeasurementOptions opt;
  opt.seed = 1234;
  opt.max_para_configs = 4;
  opt.joint_sample = 5;
  opt.verbose = false;
  return opt;
}

// Skewed on purpose: the large dataset is where static chunking and dynamic
// stealing schedule sessions most differently.
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

// The campaign table with the real-CPU-time columns zeroed, one row per line.
std::string masked_table(const MeasurementTable& table) {
  std::ostringstream out;
  for (const auto& row : table.rows()) {
    Measurement copy = row;
    copy.train_seconds = 0.0;
    copy.predict_seconds = 0.0;
    out << measurement_row_to_tsv(copy) << '\n';
  }
  return out.str();
}

// Header and session-marker lines of a journal; every other line is a row.
bool is_journal_marker(const std::string& line) {
  return line.rfind("#", 0) == 0 || line.rfind("=", 0) == 0;
}

// A journal row line (measurement_row_to_tsv) with its sec/psec fields masked.
std::string masked_row(const std::string& line) {
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
  EXPECT_EQ(fields.size(), 14u) << "unexpected journal row: " << line;
  if (fields.size() == 14) {
    fields[10] = "X";  // sec column
    fields[11] = "X";  // psec column
  }
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) out += (i > 0 ? "\t" : "") + fields[i];
  return out;
}

// Journal bytes with the sec/psec fields of each row line masked.  Marker and
// header lines pass through untouched.
std::string masked_journal(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "journal missing: " << path;
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    out << (is_journal_marker(line) ? line : masked_row(line)) << '\n';
  }
  return out.str();
}

struct RunArtifacts {
  std::string table;
  std::string journal;
  SchedulerStats scheduler;
};

RunArtifacts run_once(const MeasurementOptions& base, int threads, Schedule schedule,
                      std::vector<PlatformPtr> platforms = small_roster()) {
  // The journal path embeds the running test's name: several tests in this
  // file call run_once with the same (threads, schedule) pair, and ctest runs
  // them as concurrent processes sharing TempDir — a fixed name lets one
  // test std::remove the journal another is about to read.
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string path = ::testing::TempDir() + "/scheduler_det_" +
                           (info ? info->name() : "unknown") + "_t" +
                           std::to_string(threads) + "_" + to_string(schedule) +
                           ".journal";
  std::remove(path.c_str());
  MeasurementOptions opt = base;
  opt.threads = threads;
  opt.schedule = schedule;
  opt.campaign.journal_path = path;
  const CampaignResult result = run_campaign(skewed_corpus(), platforms, opt);
  RunArtifacts artifacts{masked_table(result.table), masked_journal(path),
                         result.report.scheduler};
  std::remove(path.c_str());
  return artifacts;
}

void expect_identical_across_schedules(const MeasurementOptions& base) {
  const RunArtifacts reference = run_once(base, 1, Schedule::kStatic);
  ASSERT_FALSE(reference.table.empty());
  ASSERT_FALSE(reference.journal.empty());
  for (const int threads : {1, 4, 16}) {
    for (const Schedule schedule : {Schedule::kStatic, Schedule::kDynamic}) {
      if (threads == 1 && schedule == Schedule::kStatic) continue;
      const RunArtifacts run = run_once(base, threads, schedule);
      EXPECT_EQ(run.table, reference.table)
          << "table differs at threads=" << threads << " schedule=" << to_string(schedule);
      EXPECT_EQ(run.journal, reference.journal)
          << "journal differs at threads=" << threads
          << " schedule=" << to_string(schedule);
    }
  }
}

TEST(CampaignScheduler, TableAndJournalBytesInvariantAcrossThreadsAndSchedules) {
  expect_identical_across_schedules(fast_options());
}

// Every cell of the campaign measured directly, in the campaign's canonical
// (dataset, platform, config) order.  measure_one fits outside any session,
// with no TrainContext installed, so this is the campaign without
// train-state reuse.
MeasurementTable direct_table(const MeasurementOptions& options,
                              const std::vector<PlatformPtr>& platforms) {
  MeasurementTable table;
  for (const Dataset& dataset : skewed_corpus()) {
    for (const auto& platform : platforms) {
      for (const auto& config : enumerate_configs(*platform, options)) {
        if (auto m = measure_one(dataset, *platform, config, options)) table.add(*m);
      }
    }
  }
  return table;
}

// A campaign run must equal the direct measurement of its cells, masked: the
// table row for row, and the journal's row lines (the journal brackets the
// same rows with session markers).
void expect_equals_direct(const RunArtifacts& run, const MeasurementTable& direct) {
  ASSERT_FALSE(direct.rows().empty());
  EXPECT_EQ(run.table, masked_table(direct));
  std::istringstream journal(run.journal);
  std::string journal_rows;
  for (std::string line; std::getline(journal, line);) {
    if (!is_journal_marker(line)) journal_rows += line + '\n';
  }
  std::string direct_rows;
  for (const auto& row : direct.rows()) {
    direct_rows += masked_row(measurement_row_to_tsv(row)) + '\n';
  }
  EXPECT_EQ(journal_rows, direct_rows);
}

TEST(CampaignScheduler, TableAndJournalBytesInvariantAcrossTrainStateReuse) {
  // The session-scoped TrainContext (shared tree presorts + kNN norms
  // across a session's cells) must be invisible at campaign level: every
  // campaign row, in the table and in the journal, equals the direct,
  // context-free measurement of its cell.
  const MeasurementOptions options = fast_options();
  expect_equals_direct(run_once(options, 2, Schedule::kStatic),
                       direct_table(options, small_roster()));
}

TEST(CampaignScheduler, TableAndJournalBytesInvariantAcrossFeatureStepReuse) {
  // Microsoft and Local are the platforms with feature steps.  A session
  // fits each step once per run of same-step cells
  // (TrainContext::feature_step) and trains the classifiers on the shared
  // transform; measure_one fits every cell's own step.  The masked table and
  // journal rows must not move.
  const auto roster = [] {
    std::vector<PlatformPtr> platforms;
    platforms.push_back(make_platform("Microsoft"));
    platforms.push_back(make_platform("Local"));
    return platforms;
  };
  MeasurementOptions options = fast_options();
  options.joint_sample = 50;
  // Every feature step runs in the FEAT dimension (one cell per classifier)
  // and again in the joint sample.
  for (const auto& platform : roster()) {
    const ControlSurface surface = platform->controls();
    const auto configs = enumerate_configs(*platform, options);
    for (const auto& step : surface.feature_steps) {
      const auto cells = std::count_if(configs.begin(), configs.end(),
                                       [&](const PipelineConfig& c) {
                                         return c.feature_step == step;
                                       });
      EXPECT_GT(static_cast<std::size_t>(cells), surface.classifiers.size())
          << platform->name() << " " << step << " is not in the joint sample";
    }
  }
  expect_equals_direct(run_once(options, 2, Schedule::kStatic, roster()),
                       direct_table(options, roster()));
}

TEST(CampaignScheduler, InvariantUnderFaultsChaosAndBreakers) {
  MeasurementOptions opt = fast_options();
  opt.campaign.fault_rate = 0.2;
  opt.campaign.retry_budget = 2;
  opt.campaign.chaos_profile = "storm";
  opt.campaign.breaker.enabled = true;
  expect_identical_across_schedules(opt);
}

TEST(CampaignScheduler, ReportsSchedulerTelemetry) {
  MeasurementOptions opt = fast_options();
  opt.threads = 2;
  opt.schedule = Schedule::kDynamic;
  const CampaignResult result = run_campaign(skewed_corpus(), small_roster(), opt);
  const SchedulerStats& s = result.report.scheduler;
  EXPECT_EQ(s.schedule, "dynamic");
  EXPECT_EQ(s.workers, 2u);
  EXPECT_EQ(s.sessions, skewed_corpus().size() * small_roster().size());
  EXPECT_EQ(s.worker_busy_seconds.size(), s.workers);
  EXPECT_GE(s.makespan_seconds, 0.0);
  EXPECT_GE(s.imbalance(), 1.0);
  EXPECT_GE(s.busy_seconds(), 0.0);
}

TEST(CampaignScheduler, StaticScheduleReportsItself) {
  MeasurementOptions opt = fast_options();
  opt.threads = 2;
  opt.schedule = Schedule::kStatic;
  const CampaignResult result = run_campaign(skewed_corpus(), small_roster(), opt);
  EXPECT_EQ(result.report.scheduler.schedule, "static");
  EXPECT_EQ(result.report.scheduler.sessions_stolen, 0u);
}

TEST(CampaignScheduler, ParseScheduleRejectsUnknownNames) {
  EXPECT_EQ(parse_schedule("static"), Schedule::kStatic);
  EXPECT_EQ(parse_schedule("dynamic"), Schedule::kDynamic);
  EXPECT_THROW(parse_schedule("stolen"), std::invalid_argument);
  EXPECT_THROW(parse_schedule(""), std::invalid_argument);
}

TEST(CampaignScheduler, NegativeThreadCountIsRejected) {
  MeasurementOptions opt = fast_options();
  opt.threads = -1;
  EXPECT_THROW(run_campaign(skewed_corpus(), small_roster(), opt),
               std::invalid_argument);
}

}  // namespace
}  // namespace mlaas
