// The write-ahead cell journal: round-trips, fingerprint gating, reset
// markers, torn tails, and end-to-end crash-resume equivalence.  Crash
// states are built the way a crash leaves them: whole session blocks from
// append_session_block, plus raw bytes for whatever a crash cut short.
#include "eval/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "data/generators.h"
#include "eval/measurement.h"

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
  return platforms;
}

Measurement make_row(const std::string& dataset, const std::string& platform,
                     const std::string& clf, double f_score) {
  Measurement m;
  m.dataset_id = dataset;
  m.platform = platform;
  m.feature_step = "none";
  m.classifier = clf;
  m.test.f_score = f_score;
  m.label_signature = "0110";
  return m;
}

/// Bytes a crash left behind after the last complete append.
void append_raw(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::app) << bytes;
}

// Rows must match field-for-field except train_seconds, which is real
// wall-clock and differs even between two uninterrupted runs.
void expect_rows_equal(const Measurement& a, const Measurement& b) {
  EXPECT_EQ(a.dataset_id, b.dataset_id);
  EXPECT_EQ(a.platform, b.platform);
  EXPECT_EQ(a.feature_step, b.feature_step);
  EXPECT_EQ(a.classifier, b.classifier);
  EXPECT_EQ(a.params, b.params);
  EXPECT_EQ(a.default_params, b.default_params);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.failure, b.failure);
  EXPECT_EQ(a.label_signature, b.label_signature);
  EXPECT_DOUBLE_EQ(a.test.f_score, b.test.f_score);
  EXPECT_DOUBLE_EQ(a.test.accuracy, b.test.accuracy);
  EXPECT_DOUBLE_EQ(a.test.precision, b.test.precision);
  EXPECT_DOUBLE_EQ(a.test.recall, b.test.recall);
}

TEST(CellJournal, RoundTripsCompletedSessions) {
  const std::string path = ::testing::TempDir() + "/journal_roundtrip.journal";
  std::remove(path.c_str());
  {
    CellJournal journal(path, "fp-v1", /*truncate=*/true);
    journal.append_session_block("d1", "Google",
                                 {make_row("d1", "Google", "knn", 0.91),
                                  make_row("d1", "Google", "mlp", 0.87)});
    EXPECT_EQ(journal.cells_journaled(), 2u);
  }
  // A torn block: the crash hit after the second session's reset marker and
  // first row, before its done marker.  Its row must be discarded on load.
  append_raw(path, "= reset\td2\tGoogle\n" +
                       measurement_row_to_tsv(make_row("d2", "Google", "knn", 0.5)) + "\n");
  const auto restored = CellJournal::load(path, "fp-v1");
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->cells, 2u);
  EXPECT_EQ(restored->discarded, 1u);
  ASSERT_EQ(restored->sessions.size(), 1u);
  const auto& rows = restored->sessions.at(CellJournal::session_key("d1", "Google"));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].classifier, "knn");
  EXPECT_DOUBLE_EQ(rows[0].test.f_score, 0.91);
  EXPECT_EQ(rows[1].classifier, "mlp");
  std::remove(path.c_str());
}

TEST(CellJournal, FingerprintMismatchRefusesToLoad) {
  const std::string path = ::testing::TempDir() + "/journal_fp.journal";
  {
    CellJournal journal(path, "fp-old", /*truncate=*/true);
    journal.append_session_block("d1", "Google", {make_row("d1", "Google", "knn", 0.9)});
  }
  EXPECT_FALSE(CellJournal::load(path, "fp-new").has_value());
  EXPECT_TRUE(CellJournal::load(path, "fp-old").has_value());
  EXPECT_FALSE(CellJournal::load(path + ".missing", "fp-old").has_value());
  std::remove(path.c_str());
}

TEST(CellJournal, ResetMarkerInvalidatesEarlierRows) {
  const std::string path = ::testing::TempDir() + "/journal_reset.journal";
  {
    CellJournal journal(path, "fp", /*truncate=*/true);
    // A completed session from an earlier run, then the same session re-run
    // (e.g. after --fresh was forced mid-way): the second block's reset
    // marker must drop the stale rows so nothing is double-counted.
    journal.append_session_block("d1", "Google", {make_row("d1", "Google", "knn", 0.9)});
    journal.append_session_block("d1", "Google", {make_row("d1", "Google", "knn", 0.95)});
  }
  const auto restored = CellJournal::load(path, "fp");
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->cells, 1u);
  EXPECT_EQ(restored->discarded, 1u);
  const auto& rows = restored->sessions.at(CellJournal::session_key("d1", "Google"));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].test.f_score, 0.95);
  std::remove(path.c_str());
}

TEST(CellJournal, TornTailIsDiscardedNotFatal) {
  const std::string path = ::testing::TempDir() + "/journal_torn.journal";
  {
    CellJournal journal(path, "fp", /*truncate=*/true);
    journal.append_session_block("d1", "Google", {make_row("d1", "Google", "knn", 0.9)});
  }
  append_raw(path, "d2\tGoogle\ttrunc");  // the torn tail of a crashed append
  const auto restored = CellJournal::load(path, "fp");
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->cells, 1u);
  std::remove(path.c_str());
}

TEST(CellJournal, RejectsATargetItCannotSync) {
  // fsync on /dev/null fails (EINVAL): nothing written there is durable, so
  // neither the header nor a session block may count as journaled.
  const std::string path = "/dev/null";
  if (!std::filesystem::exists(path)) GTEST_SKIP() << path << " is absent";
  const auto expect_sync_error = [&](const auto& write) {
    try {
      write();
      ADD_FAILURE() << "wrote to " << path << " without an error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("fsync failed for " + path), std::string::npos)
          << e.what();
    }
  };
  expect_sync_error([&] { CellJournal journal(path, "fp", /*truncate=*/true); });
  CellJournal journal(path, "fp", /*truncate=*/false);
  expect_sync_error([&] {
    journal.append_session_block("d1", "Google", {make_row("d1", "Google", "knn", 0.9)});
  });
  EXPECT_EQ(journal.cells_journaled(), 0u);
}

TEST(CellJournal, CrashedCampaignResumesBitIdentically) {
  const auto corpus = tiny_corpus();
  const auto platforms = small_roster();
  const std::string path = ::testing::TempDir() + "/journal_crash.journal";
  std::remove(path.c_str());

  MeasurementOptions options = fast_options();
  options.threads = 1;  // crash after a deterministic number of cells
  options.campaign.fault_rate = 0.3;  // retries + failure rows in the mix
  options.campaign.retry_budget = 2;
  options.campaign.journal_path = path;

  // Reference: the same campaign, uninterrupted, without a journal.
  MeasurementOptions plain = options;
  plain.campaign.journal_path.clear();
  const CampaignResult uninterrupted = run_campaign(corpus, platforms, plain);
  ASSERT_GT(uninterrupted.table.size(), 8u);

  // Crash-injection: abort the campaign once 5 cells hit the journal.
  MeasurementOptions crashing = options;
  crashing.campaign.after_cell_hook = [](std::size_t cells) {
    if (cells >= 5) throw std::runtime_error("injected crash");
  };
  EXPECT_THROW(run_campaign(corpus, platforms, crashing), std::runtime_error);
  {
    std::ifstream probe(path);
    ASSERT_TRUE(probe.good()) << "crash must leave the journal behind";
  }

  // Resume: the final table must match the uninterrupted run row for row,
  // and at least one completed session must come from the journal.
  const CampaignResult resumed = run_campaign(corpus, platforms, options);
  ASSERT_EQ(resumed.table.size(), uninterrupted.table.size());
  for (std::size_t i = 0; i < resumed.table.size(); ++i) {
    expect_rows_equal(uninterrupted.table.rows()[i], resumed.table.rows()[i]);
  }
  std::size_t restored = 0;
  for (const auto& p : resumed.report.platforms) restored += p.cells_restored;
  EXPECT_GT(restored, 0u);
  std::remove(path.c_str());
}

TEST(CellJournal, FreshRunIgnoresExistingJournal) {
  const auto corpus = tiny_corpus();
  const auto platforms = small_roster();
  const std::string path = ::testing::TempDir() + "/journal_fresh.journal";
  std::remove(path.c_str());

  MeasurementOptions options = fast_options();
  options.threads = 1;
  options.campaign.journal_path = path;
  MeasurementOptions crashing = options;
  crashing.campaign.after_cell_hook = [](std::size_t cells) {
    if (cells >= 3) throw std::runtime_error("injected crash");
  };
  EXPECT_THROW(run_campaign(corpus, platforms, crashing), std::runtime_error);

  MeasurementOptions fresh = options;
  fresh.campaign.resume = false;
  const CampaignResult result = run_campaign(corpus, platforms, fresh);
  for (const auto& p : result.report.platforms) EXPECT_EQ(p.cells_restored, 0u);
  EXPECT_GT(result.table.size(), 0u);
  std::remove(path.c_str());
}

TEST(CellJournal, RunOrLoadRemovesJournalAfterCaching) {
  const auto corpus = tiny_corpus();
  const auto platforms = small_roster();
  const std::string cache = ::testing::TempDir() + "/journal_cache.tsv";
  std::remove(cache.c_str());
  MeasurementOptions quiet = fast_options();
  quiet.verbose = false;
  const auto table = run_or_load(corpus, platforms, quiet, cache);
  EXPECT_GT(table.size(), 0u);
  // The campaign completed and was cached: its journal must be gone.
  std::ifstream probe(cache + ".journal");
  EXPECT_FALSE(probe.good());
  std::remove(cache.c_str());
  std::remove((cache + ".campaign.tsv").c_str());
  std::remove((cache + ".campaign.json").c_str());
}

}  // namespace
}  // namespace mlaas
