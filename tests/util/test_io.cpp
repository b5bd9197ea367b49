#include "util/io.h"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "eval/measurement.h"
#include "platform/serving.h"
#include "util/trace.h"

namespace mlaas {
namespace {

/// A path that cannot be opened for writing: a component of the directory
/// chain is a regular file.
std::string unopenable_path() {
  const std::string file = testing::TempDir() + "io_not_a_dir";
  std::ofstream(file) << "plain file\n";
  return file + "/nested/out.tsv";
}

bool dev_full_available() {
  std::ifstream probe("/dev/full");
  return probe.good();
}

TEST(SidecarIo, OpenFailureThrowsWithPath) {
  const std::string path = unopenable_path();
  try {
    open_sidecar(path, "TestWriter");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("TestWriter"), std::string::npos);
  }
}

TEST(SidecarIo, WriteFailureThrowsWithPath) {
  // /dev/full accepts the open and fails every flush with ENOSPC — the
  // exact "disk filled up mid-report" failure the unchecked writers
  // swallowed (they exited 0 leaving a truncated file).
  if (!dev_full_available()) GTEST_SKIP() << "/dev/full not available";
  std::ofstream out = open_sidecar("/dev/full", "TestWriter");
  out << std::string(1 << 20, 'x');  // larger than libstdc++'s buffer
  try {
    finish_sidecar(out, "/dev/full", "TestWriter");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos) << e.what();
  }
}

TEST(SidecarIo, SuccessfulWriteIsSilent) {
  const std::string path = testing::TempDir() + "io_ok.tsv";
  std::ofstream out = open_sidecar(path, "TestWriter");
  out << "hello\n";
  EXPECT_NO_THROW(finish_sidecar(out, path, "TestWriter"));
}

// Every report writer must surface both failure modes instead of exiting 0
// with a truncated sidecar (the ISSUE bug: none of them checked the stream).

TEST(SidecarIo, MeasurementTableSaveCsvChecksTheStream) {
  MeasurementTable table;
  Measurement m;
  m.dataset_id = "ds";
  m.platform = "Local";
  table.add(m);
  EXPECT_THROW(table.save_csv(unopenable_path()), std::runtime_error);
  if (dev_full_available()) {
    EXPECT_THROW(table.save_csv("/dev/full"), std::runtime_error);
  }
}

TEST(SidecarIo, CampaignReportWritersCheckTheStream) {
  CampaignReport report;
  PlatformCampaignStats p;
  p.platform = "Local";
  p.cells_total = 4;
  report.platforms.push_back(p);
  EXPECT_THROW(report.save_tsv(unopenable_path()), std::runtime_error);
  EXPECT_THROW(report.save_json(unopenable_path()), std::runtime_error);
  if (dev_full_available()) {
    // The report fits inside the stream buffer, so the open-time write
    // succeeds and only the flush can report ENOSPC.
    EXPECT_THROW(report.save_tsv("/dev/full"), std::runtime_error);
    EXPECT_THROW(report.save_json("/dev/full"), std::runtime_error);
  }
}

TEST(SidecarIo, ServingReportWritersCheckTheStream) {
  ServingReport report;
  report.totals.requests = 1;
  EXPECT_THROW(report.save_tsv(unopenable_path()), std::runtime_error);
  EXPECT_THROW(report.save_json(unopenable_path()), std::runtime_error);
  if (dev_full_available()) {
    EXPECT_THROW(report.save_tsv("/dev/full"), std::runtime_error);
    EXPECT_THROW(report.save_json("/dev/full"), std::runtime_error);
  }
}

TEST(SidecarIo, TraceSaveJsonChecksTheStream) {
  Trace trace;
  trace.track("t").instant("c", "e", 0.0);
  EXPECT_THROW(trace.save_json(unopenable_path()), std::runtime_error);
  if (dev_full_available()) {
    EXPECT_THROW(trace.save_json("/dev/full"), std::runtime_error);
  }
}

TEST(SidecarIo, JsonEscapesControlCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c\nd\re\tf"), "a\\\"b\\\\c\\nd\\re\\tf");
  EXPECT_EQ(json_escape(std::string("x\x01y\x1f", 4)), "x\\u0001y\\u001f");
  // The report writers escape through it: a raw carriage return or control
  // byte in a name would make the JSON invalid.
  CampaignReport report;
  PlatformCampaignStats p;
  p.platform = "Bad\x01Name\r";
  report.platforms.push_back(p);
  const std::string path = testing::TempDir() + "io_escape.campaign.json";
  report.save_json(path);
  std::ifstream in(path);
  const std::string json((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"Bad\\u0001Name\\r\""), std::string::npos) << json;
  EXPECT_EQ(json.find('\x01'), std::string::npos);
  EXPECT_EQ(json.find('\r'), std::string::npos);
}

TEST(SidecarIo, CheckedWriteKeepsTheReportBytes) {
  // The checked writers must not change the bytes, only verify them.
  CampaignReport report;
  PlatformCampaignStats p;
  p.platform = "Local";
  p.cells_total = 2;
  p.cells_ok = 2;
  report.platforms.push_back(p);
  report.scheduler.workers = 1;
  report.scheduler.schedule = "dynamic";
  const std::string path = testing::TempDir() + "io_checked.campaign.tsv";
  report.save_tsv(path);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header.rfind("platform\tcells_total\t", 0), 0u) << header;
  const std::string rest((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(rest,
            "Local\t2\t2\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t-\n"
            "# scheduler\tschedule=dynamic\tworkers=1\tsessions=0\tstolen=0\tmakespan_sec=0\t"
            "busy_sec=0\timbalance=1\tworker_busy_sec=-\n");
}

}  // namespace
}  // namespace mlaas
