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
#include "ml/classifier.h"
#include "ml/tree/trainer.h"

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

// Journal bytes with the sec/psec fields of each row line masked.  Marker and
// header lines pass through untouched.
std::string masked_journal(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "journal missing: " << path;
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("#", 0) == 0 || line.rfind("=", 0) == 0) {
      out << line << '\n';
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
    EXPECT_EQ(fields.size(), 14u) << "unexpected journal row: " << line;
    if (fields.size() == 14) {
      fields[10] = "X";  // sec column
      fields[11] = "X";  // psec column
    }
    for (std::size_t i = 0; i < fields.size(); ++i) {
      out << (i > 0 ? "\t" : "") << fields[i];
    }
    out << '\n';
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

TEST(CampaignScheduler, TableAndJournalBytesInvariantAcrossTreeBuilders) {
  // The presort training kernel must be invisible at campaign level: a run
  // with the fast builder produces the same masked table and journal bytes
  // as a run through ReferenceTreeBuilder (the pre-kernel per-node-sort
  // path every earlier campaign used).
  const MeasurementOptions opt = fast_options();
  set_active_tree_builder(TreeBuilder::kReference);
  const RunArtifacts reference = run_once(opt, 2, Schedule::kStatic);
  set_active_tree_builder(TreeBuilder::kFast);
  ASSERT_FALSE(reference.table.empty());
  const RunArtifacts fast = run_once(opt, 2, Schedule::kStatic);
  EXPECT_EQ(fast.table, reference.table);
  EXPECT_EQ(fast.journal, reference.journal);
}

TEST(CampaignScheduler, TableAndJournalBytesInvariantAcrossTrainStateReuse) {
  // The session-scoped TrainContext (shared tree presorts + kNN norms
  // across a session's cells) must be invisible at campaign level: with
  // reuse disabled every fit rebuilds its state from scratch, and the
  // masked table and journal bytes must not move.
  MeasurementOptions fresh = fast_options();
  fresh.reuse_train_state = false;
  const RunArtifacts reference = run_once(fresh, 2, Schedule::kStatic);
  ASSERT_FALSE(reference.table.empty());
  MeasurementOptions reused = fast_options();
  reused.reuse_train_state = true;
  const RunArtifacts run = run_once(reused, 2, Schedule::kStatic);
  EXPECT_EQ(run.table, reference.table);
  EXPECT_EQ(run.journal, reference.journal);
}

TEST(CampaignScheduler, TableAndJournalBytesInvariantAcrossFeatureStepReuse) {
  // Microsoft and Local are the platforms with feature steps.  With reuse on,
  // a session fits each step once per run of same-step cells
  // (TrainContext::feature_step) and trains the classifiers on the shared
  // transform; with it off every cell fits its own step.  The masked table
  // and journal bytes must not move.
  const auto roster = [] {
    std::vector<PlatformPtr> platforms;
    platforms.push_back(make_platform("Microsoft"));
    platforms.push_back(make_platform("Local"));
    return platforms;
  };
  MeasurementOptions fresh = fast_options();
  fresh.joint_sample = 50;
  // Every feature step runs in the FEAT dimension (one cell per classifier)
  // and again in the joint sample.
  for (const auto& platform : roster()) {
    const ControlSurface surface = platform->controls();
    const auto configs = enumerate_configs(*platform, fresh);
    for (const auto& step : surface.feature_steps) {
      const auto cells = std::count_if(configs.begin(), configs.end(),
                                       [&](const PipelineConfig& c) {
                                         return c.feature_step == step;
                                       });
      EXPECT_GT(static_cast<std::size_t>(cells), surface.classifiers.size())
          << platform->name() << " " << step << " is not in the joint sample";
    }
  }
  fresh.reuse_train_state = false;
  const RunArtifacts reference = run_once(fresh, 2, Schedule::kStatic, roster());
  ASSERT_FALSE(reference.table.empty());
  MeasurementOptions reused = fresh;
  reused.reuse_train_state = true;
  const RunArtifacts run = run_once(reused, 2, Schedule::kStatic, roster());
  EXPECT_EQ(run.table, reference.table);
  EXPECT_EQ(run.journal, reference.journal);
}

TEST(CampaignScheduler, TableAndJournalBytesInvariantAcrossPredictKernels) {
  // The flat prediction kernels must be invisible at campaign level: a run
  // under PredictKernel::kReference (the pre-kernel per-row walks) produces
  // the same masked table and journal bytes as the flat default.
  const MeasurementOptions opt = fast_options();
  set_active_predict_kernel(PredictKernel::kReference);
  const RunArtifacts reference = run_once(opt, 2, Schedule::kStatic);
  set_active_predict_kernel(PredictKernel::kFlat);
  ASSERT_FALSE(reference.table.empty());
  const RunArtifacts flat = run_once(opt, 2, Schedule::kStatic);
  EXPECT_EQ(flat.table, reference.table);
  EXPECT_EQ(flat.journal, reference.journal);
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
