#include "util/io.h"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
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

// ---- Sidecar: the one encoder behind every report ----

std::string tsv_of(const Sidecar& sidecar) {
  std::ostringstream out;
  sidecar.write_tsv(out);
  return out.str();
}

std::string json_of(const Sidecar& sidecar) {
  std::ostringstream out;
  sidecar.write_json(out);
  return out.str();
}

TEST(Sidecar, EmptyTableWritesHeaderAndEmptyArray) {
  Sidecar s;
  s.rows_name = "rows";
  s.columns = {"name", "count"};
  EXPECT_EQ(tsv_of(s), "name\tcount\n");
  EXPECT_EQ(json_of(s), "{\n  \"rows\": []\n}\n");
}

TEST(Sidecar, TableAndTrailersRenderTheSameValues) {
  Sidecar s;
  s.rows_name = "rows";
  s.columns = {"name", "count", "share"};
  s.rows = {{std::string("a"), std::size_t{3}, 1.0 / 3.0},
            {std::string("b"), std::size_t{0}, 2.5}};
  s.trailers = {{"totals", {{"count", std::size_t{3}}, {"mode", std::string("x")}}}};
  EXPECT_EQ(tsv_of(s),
            "name\tcount\tshare\n"
            "a\t3\t0.3333333333\n"
            "b\t0\t2.5\n"
            "# totals\tcount=3\tmode=x\n");
  EXPECT_EQ(json_of(s),
            "{\n"
            "  \"rows\": [\n"
            "    {\"name\": \"a\", \"count\": 3, \"share\": 0.3333333333},\n"
            "    {\"name\": \"b\", \"count\": 0, \"share\": 2.5}\n"
            "  ],\n"
            "  \"totals\": {\"count\": 3, \"mode\": \"x\"}\n"
            "}\n");
}

TEST(Sidecar, BareTrailerIsWrittenWithoutKey) {
  Sidecar s;
  s.rows_name = "rows";
  s.columns = {"name"};
  s.trailers = {{"trace", {{"", std::string("tracks=1;spans=2")}}}};
  EXPECT_EQ(tsv_of(s), "name\n# trace\ttracks=1;spans=2\n");
  EXPECT_EQ(json_of(s), "{\n  \"rows\": [],\n  \"trace\": \"tracks=1;spans=2\"\n}\n");
}

TEST(Sidecar, JsonEscapesKeysAndValues) {
  Sidecar s;
  s.rows_name = "ro\"ws";
  s.columns = {"na\tme"};
  s.rows = {{std::string("Bad\x01Name\r")}};
  s.trailers = {{"tr\\ail", {{"k\ney", std::string("v\"al")}}}};
  const std::string json = json_of(s);
  EXPECT_NE(json.find("\"ro\\\"ws\": ["), std::string::npos) << json;
  EXPECT_NE(json.find("{\"na\\tme\": \"Bad\\u0001Name\\r\"}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tr\\\\ail\": {\"k\\ney\": \"v\\\"al\"}"), std::string::npos) << json;
  EXPECT_EQ(json.find('\x01'), std::string::npos);
  EXPECT_EQ(json.find('\r'), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);
}

TEST(Sidecar, NonFiniteDoublesAreNullInJson) {
  Sidecar s;
  s.rows_name = "rows";
  s.columns = {"ratio"};
  s.rows = {{std::numeric_limits<double>::quiet_NaN()},
            {std::numeric_limits<double>::infinity()}};
  EXPECT_EQ(tsv_of(s), "ratio\nnan\ninf\n");
  EXPECT_EQ(json_of(s),
            "{\n  \"rows\": [\n    {\"ratio\": null},\n    {\"ratio\": null}\n  ]\n}\n");
}

TEST(Sidecar, RowWidthMustMatchTheColumns) {
  Sidecar s;
  s.rows_name = "rows";
  s.columns = {"a", "b"};
  s.rows = {{std::string("only one")}};
  std::ostringstream out;
  EXPECT_THROW(s.write_tsv(out), std::logic_error);
  EXPECT_THROW(s.write_json(out), std::logic_error);
}

TEST(Sidecar, WritersLeaveTheStreamPrecision) {
  Sidecar s;
  s.rows_name = "rows";
  s.columns = {"x"};
  s.rows = {{1.0 / 3.0}};
  std::ostringstream out;
  out.precision(3);
  s.write_tsv(out);
  s.write_json(out);
  EXPECT_EQ(out.precision(), 3);
}

}  // namespace
}  // namespace mlaas
