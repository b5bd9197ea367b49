#include "platform/serving.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "data/generators.h"
#include "platform/all_platforms.h"
#include "util/rng.h"

namespace mlaas {
namespace {

Dataset serving_data(std::uint64_t seed = 3) {
  Dataset d = make_blobs(120, 4, 0.9, 5.0, seed);
  d.meta().id = "serving-test-" + std::to_string(seed);
  return d;
}

/// One-row query matrix holding row i (mod size) of the training set.
Matrix slice_row(const Dataset& d, int i) {
  Matrix q(1, d.x().cols());
  const auto src = d.x().row(static_cast<std::size_t>(i) % d.x().rows());
  std::copy(src.begin(), src.end(), q.row(0).begin());
  return q;
}

/// Labels from the direct path the serving layer must reproduce byte for
/// byte: Platform::train with the explicit seed, then one predict call.
std::vector<int> direct_labels(const std::string& platform, const Dataset& train,
                               const Matrix& query, std::uint64_t train_seed) {
  const auto p = make_platform(platform);
  return p->train(train, {}, train_seed)->predict(query);
}

/// Push `query` through a fresh router in per-request chunks of `chunk`
/// rows, drain, and return the concatenated labels (ticket order).
std::vector<int> serving_labels(const std::string& platform, const Dataset& train,
                                const Matrix& query, std::uint64_t train_seed,
                                std::size_t chunk, ServingOptions options = {}) {
  std::vector<PlatformPtr> roster;
  roster.push_back(make_platform(platform));
  QueryRouter router(roster, "default", /*seed=*/99, options);
  const auto session =
      router.open_session("t0", platform, train, {}, train_seed);
  EXPECT_TRUE(session.has_value()) << router.last_error();
  if (!session) return {};

  std::vector<QueryRouter::Ticket> tickets;
  for (std::size_t start = 0; start < query.rows(); start += chunk) {
    const std::size_t rows = std::min(chunk, query.rows() - start);
    Matrix q(rows, query.cols());
    for (std::size_t r = 0; r < rows; ++r) {
      const auto src = query.row(start + r);
      std::copy(src.begin(), src.end(), q.row(r).begin());
    }
    const auto ticket = router.submit(*session, q);
    EXPECT_TRUE(ticket.has_value());
    if (ticket) tickets.push_back(*ticket);
  }
  router.drain();

  std::vector<int> labels;
  for (const auto ticket : tickets) {
    const QueryResult& r = router.result(ticket);
    EXPECT_TRUE(r.done);
    EXPECT_TRUE(r.ok) << r.error;
    labels.insert(labels.end(), r.labels.begin(), r.labels.end());
  }
  return labels;
}

TEST(QueryRouterTest, ServingMatchesDirectPredictAcrossBatchSizes) {
  // The headline invariant: for every platform and any micro-batch shape the
  // serving path returns byte-identical labels to the direct call — batching
  // only changes how rows ride together, never what comes back.
  const Dataset train = serving_data(5);
  const Matrix& query = train.x();
  for (const auto& platform : platform_names()) {
    const std::vector<int> expected =
        direct_labels(platform, train, query, /*train_seed=*/321);
    ASSERT_EQ(expected.size(), query.rows());
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
      EXPECT_EQ(serving_labels(platform, train, query, 321, chunk), expected)
          << platform << " chunk=" << chunk;
    }
  }
}

TEST(QueryRouterTest, BatchShapeDoesNotChangeLabels) {
  // Different max_batch_rows / linger settings regroup the same submits into
  // different predict calls; the concatenated labels must not move.
  const Dataset train = serving_data(6);
  const Matrix& query = train.x();
  const std::vector<int> expected = direct_labels("Local", train, query, 77);
  for (std::size_t max_batch : {std::size_t{1}, std::size_t{16}, std::size_t{256}}) {
    ServingOptions options;
    options.max_batch_rows = max_batch;
    EXPECT_EQ(serving_labels("Local", train, query, 77, 5, options), expected)
        << "max_batch_rows=" << max_batch;
  }
}

TEST(QueryRouterTest, MicroBatchingCoalescesRequests) {
  std::vector<PlatformPtr> roster;
  roster.push_back(make_platform("Local"));
  ServingOptions options;
  options.max_batch_rows = 32;
  QueryRouter router(roster, "unlimited", 1, options);
  const Dataset train = serving_data(7);
  const auto session = router.open_session("t0", "Local", train, {}, 1);
  ASSERT_TRUE(session.has_value());

  // 64 single-row submits inside one linger window coalesce into exactly two
  // 32-row predict calls.
  Matrix one(1, train.x().cols());
  for (int i = 0; i < 64; ++i) {
    std::copy(train.x().row(i % train.x().rows()).begin(),
              train.x().row(i % train.x().rows()).end(), one.row(0).begin());
    ASSERT_TRUE(router.submit(*session, one).has_value());
  }
  router.drain();

  const ServingStats stats = router.stats();
  EXPECT_EQ(stats.requests, 64u);
  EXPECT_EQ(stats.rows, 64u);
  EXPECT_EQ(stats.ok, 64u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_rows(), 32.0);
  EXPECT_DOUBLE_EQ(stats.batch_occupancy(options.max_batch_rows), 1.0);
  EXPECT_EQ(stats.flushed_full, 2u);
  // Service-side: upload + train + 2 predicts = 4 admitted requests, and the
  // per-row accounting sees all 64 rows.
  const ServiceStats& platform = router.platform_stats("Local");
  EXPECT_EQ(platform.requests, 4u);
  EXPECT_EQ(platform.predictions, 64u);
}

TEST(QueryRouterTest, LingerDeadlineFlushesPartialBatches) {
  std::vector<PlatformPtr> roster;
  roster.push_back(make_platform("Local"));
  ServingOptions options;
  options.max_batch_rows = 1000;  // never fills
  options.linger_seconds = 0.05;
  QueryRouter router(roster, "unlimited", 1, options);
  const Dataset train = serving_data(8);
  const auto session = router.open_session("t0", "Local", train, {}, 1);
  ASSERT_TRUE(session.has_value());

  Matrix one(1, train.x().cols());
  std::copy(train.x().row(0).begin(), train.x().row(0).end(), one.row(0).begin());
  const auto ticket = router.submit(*session, one);
  ASSERT_TRUE(ticket.has_value());
  EXPECT_FALSE(router.result(*ticket).done);

  const double submit_time = router.now();
  router.advance_to(submit_time + 0.01);  // before the deadline: still queued
  EXPECT_FALSE(router.result(*ticket).done);
  router.advance_to(submit_time + 0.06);  // past the deadline: flushed
  EXPECT_TRUE(router.result(*ticket).done);
  EXPECT_TRUE(router.result(*ticket).ok);
  EXPECT_EQ(router.stats().flushed_linger, 1u);
  // The request completed at its linger deadline, not at advance_to's t.
  EXPECT_NEAR(router.result(*ticket).complete_seconds - submit_time, 0.05, 1e-6);
}

TEST(QueryRouterTest, WaitFlushesTheTicketsBatch) {
  std::vector<PlatformPtr> roster;
  roster.push_back(make_platform("Local"));
  ServingOptions options;
  options.max_batch_rows = 1000;
  QueryRouter router(roster, "unlimited", 1, options);
  const Dataset train = serving_data(9);
  const auto session = router.open_session("t0", "Local", train, {}, 1);
  ASSERT_TRUE(session.has_value());
  Matrix one(1, train.x().cols());
  std::copy(train.x().row(0).begin(), train.x().row(0).end(), one.row(0).begin());
  const auto ticket = router.submit(*session, one);
  ASSERT_TRUE(ticket.has_value());
  const QueryResult& r = router.wait(*ticket);
  EXPECT_TRUE(r.done);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(router.stats().flushed_linger, 1u);
}

TEST(QueryRouterTest, AbsorbsRateLimitsUnderStrictQuota) {
  // "strict" admits 5 requests/min; upload + train spend two.  The router's
  // retrying client must wait the windows out (honouring Retry-After) so
  // every request still completes.
  std::vector<PlatformPtr> roster;
  roster.push_back(make_platform("Local"));
  ServingOptions options;
  options.max_batch_rows = 4;
  QueryRouter router(roster, "strict", 1, options);
  const Dataset train = serving_data(10);
  const auto session = router.open_session("t0", "Local", train, {}, 1);
  ASSERT_TRUE(session.has_value());

  Matrix one(1, train.x().cols());
  for (int i = 0; i < 32; ++i) {
    std::copy(train.x().row(i % train.x().rows()).begin(),
              train.x().row(i % train.x().rows()).end(), one.row(0).begin());
    ASSERT_TRUE(router.submit(*session, one).has_value());
  }
  router.drain();

  const ServingStats stats = router.stats();
  EXPECT_EQ(stats.ok, 32u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.rate_limited, 0u);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.backoff_seconds, 0.0);
  // Latency telemetry saw every request and the tail reflects the stalls.
  EXPECT_EQ(stats.latency.count(), 32u);
  EXPECT_GE(stats.latency.quantile(0.99), stats.latency.quantile(0.50));
}

TEST(QueryRouterTest, LruEvictionRetrainsDeterministically) {
  std::vector<PlatformPtr> roster;
  roster.push_back(make_platform("Local"));
  ServingOptions options;
  options.model_cache_capacity = 1;  // the two tenants constantly evict each other
  options.max_batch_rows = 8;
  QueryRouter router(roster, "unlimited", 1, options);

  const Dataset train_a = serving_data(11);
  const Dataset train_b = serving_data(12);
  const auto sa = router.open_session("a", "Local", train_a, {}, 100);
  const auto sb = router.open_session("b", "Local", train_b, {}, 200);
  ASSERT_TRUE(sa.has_value());
  ASSERT_TRUE(sb.has_value());
  EXPECT_LE(router.cached_models(), 1u);

  const std::vector<int> expected_a = direct_labels("Local", train_a, train_a.x(), 100);
  const std::vector<int> expected_b = direct_labels("Local", train_b, train_b.x(), 200);

  // Alternate tenants so every flush is a cache miss + re-train; the labels
  // must stay byte-identical to the direct path on every round.
  for (int round = 0; round < 3; ++round) {
    const auto ta = router.submit(*sa, train_a.x());
    ASSERT_TRUE(ta.has_value());
    router.drain();
    EXPECT_EQ(router.result(*ta).labels, expected_a) << "round " << round;

    const auto tb = router.submit(*sb, train_b.x());
    ASSERT_TRUE(tb.has_value());
    router.drain();
    EXPECT_EQ(router.result(*tb).labels, expected_b) << "round " << round;
  }

  const ServingStats stats = router.stats();
  EXPECT_LE(router.cached_models(), 1u);
  EXPECT_GT(stats.cache_evictions, 0u);
  EXPECT_GT(stats.cache_misses, stats.cache_hits);
  EXPECT_EQ(stats.trainings, stats.cache_misses);
  // Eviction releases handles: the service never holds more than capacity
  // models and no stranded datasets.
  const ServiceStats& platform = router.platform_stats("Local");
  EXPECT_EQ(platform.models_deleted + router.cached_models(), platform.trainings);
  EXPECT_EQ(platform.datasets_deleted, platform.uploads);
}

TEST(QueryRouterTest, AdmissionControlShedsLoad) {
  std::vector<PlatformPtr> roster;
  roster.push_back(make_platform("Local"));
  ServingOptions options;
  options.max_batch_rows = 1000;
  options.max_pending_rows = 4;
  options.linger_seconds = 1e9;  // nothing flushes on its own
  QueryRouter router(roster, "unlimited", 1, options);
  const Dataset train = serving_data(13);
  const auto session = router.open_session("t0", "Local", train, {}, 1);
  ASSERT_TRUE(session.has_value());

  Matrix three(3, train.x().cols());
  for (std::size_t r = 0; r < 3; ++r) {
    std::copy(train.x().row(r).begin(), train.x().row(r).end(), three.row(r).begin());
  }
  EXPECT_TRUE(router.submit(*session, three).has_value());   // 3 pending
  EXPECT_FALSE(router.submit(*session, three).has_value());  // 6 > 4: shed
  const ServingStats stats = router.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.requests, 1u);  // rejected submits are not requests served
  router.drain();
  EXPECT_EQ(router.stats().ok, 1u);
  // Drain freed the pending rows; admission opens up again.
  EXPECT_TRUE(router.submit(*session, three).has_value());
}

TEST(QueryRouterTest, ClosedSessionRejectsSubmits) {
  std::vector<PlatformPtr> roster;
  roster.push_back(make_platform("Local"));
  QueryRouter router(roster, "unlimited", 1, {});
  const Dataset train = serving_data(14);
  const auto session = router.open_session("t0", "Local", train, {}, 1);
  ASSERT_TRUE(session.has_value());
  router.close_session(*session);
  EXPECT_THROW(router.submit(*session, train.x()), std::logic_error);
  EXPECT_THROW(
      QueryRouter(roster, "unlimited", 1, {}).open_session("t", "Nope", train, {}, 1),
      std::invalid_argument);
}

TEST(LatencyHistogramTest, QuantilesAndEncoding) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.encode(), "-");

  // 100 samples at ~2ms, one at ~1s: p50 lands in the 2ms bucket, p99+ near
  // the outlier; every quantile is exact to within one sqrt(2) bucket.
  for (int i = 0; i < 100; ++i) h.record(0.002);
  h.record(1.0);
  EXPECT_EQ(h.count(), 101u);
  EXPECT_NEAR(h.quantile(0.50), 0.002, 0.002 * 0.5);
  EXPECT_GT(h.quantile(0.995), 0.5);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 1.0);
  EXPECT_NEAR(h.mean_seconds(), (0.2 + 1.0) / 101.0, 1e-12);
  // Monotone in q.
  EXPECT_LE(h.quantile(0.1), h.quantile(0.9));

  // encode() lists only occupied buckets as le_ms=count pairs.
  const std::string enc = h.encode();
  EXPECT_NE(enc.find("=100"), std::string::npos) << enc;
  EXPECT_NE(enc.find(';'), std::string::npos) << enc;
}

TEST(LatencyHistogramTest, OverflowBucketUsesObservedMax) {
  LatencyHistogram h;
  h.record(1e9);  // beyond the last bound
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1e9);
  EXPECT_NE(h.encode().find("inf=1"), std::string::npos) << h.encode();
}

TEST(LatencyHistogramTest, EmptySingleSampleAndDisjointMerge) {
  // Empty: every quantile (and the mean) is 0, not NaN or a crash.
  LatencyHistogram empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(1.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(empty.max_seconds(), 0.0);

  // One sample: every quantile resolves to that sample's bucket midpoint.
  LatencyHistogram single;
  single.record(0.010);
  const double mid = single.quantile(0.5);
  EXPECT_DOUBLE_EQ(single.quantile(0.0), mid);
  EXPECT_DOUBLE_EQ(single.quantile(1.0), mid);
  EXPECT_NEAR(mid, 0.010, 0.010 * 0.5);
  EXPECT_DOUBLE_EQ(single.mean_seconds(), 0.010);

  // Two clusters in disjoint bucket ranges: counts, totals, max and both
  // tails combine; encode() lists both clusters.
  LatencyHistogram both;
  for (int i = 0; i < 10; ++i) both.record(0.001);
  for (int i = 0; i < 10; ++i) both.record(10.0);
  EXPECT_EQ(both.count(), 20u);
  EXPECT_DOUBLE_EQ(both.total_seconds(), 10 * 0.001 + 10 * 10.0);
  EXPECT_DOUBLE_EQ(both.max_seconds(), 10.0);
  EXPECT_LT(both.quantile(0.25), 0.01);
  EXPECT_GT(both.quantile(0.95), 1.0);
  EXPECT_NE(both.encode().find(';'), std::string::npos) << both.encode();
}

TEST(ServingWorkloadTest, SeededWorkloadIsDeterministic) {
  const auto tenants = make_serving_tenants(4, {"Local", "Google"}, 42);
  ASSERT_EQ(tenants.size(), 4u);
  EXPECT_GT(tenants[0].weight, tenants[3].weight);  // Zipf skew

  ServingWorkloadOptions options;
  options.requests = 200;
  options.seed = 42;
  const auto a = run_serving_workload(tenants, options);
  const auto b = run_serving_workload(tenants, options);
  EXPECT_GT(a.report.totals.requests, 0u);
  EXPECT_EQ(a.report.totals.requests, b.report.totals.requests);
  EXPECT_EQ(a.report.totals.rows, b.report.totals.rows);
  EXPECT_EQ(a.report.totals.ok, b.report.totals.ok);
  EXPECT_EQ(a.report.totals.batches, b.report.totals.batches);
  EXPECT_DOUBLE_EQ(a.report.totals.simulated_seconds,
                   b.report.totals.simulated_seconds);
  EXPECT_EQ(a.report.totals.latency.encode(), b.report.totals.latency.encode());
  ASSERT_EQ(a.report.tenants.size(), b.report.tenants.size());
  for (std::size_t i = 0; i < a.report.tenants.size(); ++i) {
    EXPECT_EQ(a.report.tenants[i].rows, b.report.tenants[i].rows);
  }
}

TEST(ServingWorkloadTest, ClosedLoopServesEveryRequest) {
  const auto tenants = make_serving_tenants(3, {"Local"}, 7);
  ServingWorkloadOptions options;
  options.requests = 120;
  options.closed_loop = true;
  options.clients = 6;
  options.quota_profile = "unlimited";
  const auto result = run_serving_workload(tenants, options);
  EXPECT_EQ(result.report.totals.requests, 120u);
  EXPECT_EQ(result.report.totals.ok, 120u);
  EXPECT_EQ(result.report.totals.failed, 0u);
}

TEST(ServingReportTest, TsvAndJsonRoundOut) {
  const auto tenants = make_serving_tenants(2, {"Local"}, 9);
  ServingWorkloadOptions options;
  options.requests = 60;
  options.quota_profile = "unlimited";
  const auto result = run_serving_workload(tenants, options);

  const std::string tsv = testing::TempDir() + "serving_report.tsv";
  const std::string json = testing::TempDir() + "serving_report.json";
  result.report.save_tsv(tsv);
  result.report.save_json(json);

  std::ifstream tin(tsv);
  std::stringstream tbuf;
  tbuf << tin.rdbuf();
  const std::string tsv_text = tbuf.str();
  EXPECT_NE(tsv_text.find("tenant\trequests\trows"), std::string::npos);
  EXPECT_NE(tsv_text.find("TOTAL"), std::string::npos);
  EXPECT_NE(tsv_text.find("# serving\t"), std::string::npos);
  EXPECT_NE(tsv_text.find("# histogram\t"), std::string::npos);

  std::ifstream jin(json);
  std::stringstream jbuf;
  jbuf << jin.rdbuf();
  const std::string json_text = jbuf.str();
  EXPECT_EQ(json_text.rfind("{\n  \"tenants\": [\n    {\"tenant\": ", 0), 0u) << json_text;
  EXPECT_NE(json_text.find("{\"tenant\": \"TOTAL\", "), std::string::npos);
  EXPECT_NE(json_text.find("\"p99_ms\": "), std::string::npos);
  EXPECT_NE(json_text.find("\"serving\": {\"batches\": "), std::string::npos);
  EXPECT_NE(json_text.find("\"throughput_rows_per_sec\": "), std::string::npos);
  EXPECT_NE(json_text.find("\"histogram\": \""), std::string::npos);
  std::remove(tsv.c_str());
  std::remove(json.c_str());
}

TEST(ServingReport, SidecarBytesArePinned) {
  // Two tenants, every trailer switched on.  The TSV literal is the format
  // the hand-written writer produced; the JSON is the generic rendering of
  // the same value.
  ServingReport report;
  report.max_batch_rows = 8;
  TenantServingStats a;
  a.tenant = "tenant-0";
  a.requests = 3;
  a.rows = 5;
  a.ok = 2;
  a.failed = 1;
  TenantServingStats b;
  b.tenant = "tenant-1";
  b.requests = 2;
  b.rows = 2;
  b.ok = 1;
  b.rejected = 1;
  ServingStats& t = report.totals;
  for (const double s : {0.010, 0.020, 0.5}) {
    a.latency.record(s);
    t.latency.record(s);
  }
  b.latency.record(0.004);
  t.latency.record(0.004);
  report.tenants = {a, b};
  t.requests = 5;
  t.rows = 7;
  t.ok = 3;
  t.failed = 1;
  t.rejected = 1;
  t.batches = 3;
  t.batched_rows = 7;
  t.flushed_full = 1;
  t.flushed_linger = 2;
  t.cache_hits = 3;
  t.cache_misses = 2;
  t.trainings = 2;
  t.retries = 4;
  t.rate_limited = 1;
  t.backoff_seconds = 1.5;
  t.simulated_seconds = 12.0;
  t.deadline_missed = 1;
  t.failovers = 1;
  t.breaker_gated = 2;
  t.breaker_trips = 1;
  t.refused_sleeps = 1;
  report.resilience = true;
  report.trace_summary = "tracks=3;spans=10";

  std::ostringstream tsv;
  report.write_tsv(tsv);
  EXPECT_EQ(tsv.str(),
            "tenant\trequests\trows\tok\tfailed\trejected\tmean_ms\tp50_ms\tp95_ms\tp99_ms"
            "\tmax_ms\n"
            "tenant-0\t3\t5\t2\t1\t0\t176.6666667\t19.02731384\t430.5389646\t430.5389646\t500\n"
            "tenant-1\t2\t2\t1\t0\t1\t4\t3.363585661\t3.363585661\t3.363585661\t4\n"
            "TOTAL\t5\t7\t3\t1\t1\t133.5\t9.51365692\t430.5389646\t430.5389646\t500\n"
            "# serving\tbatches=3\tmean_batch_rows=2.333333333\toccupancy=0.2916666667\t"
            "throughput_rows_per_sec=0.5833333333\tsimulated_sec=12\tflushed_full=1\t"
            "flushed_linger=2\tflushed_forced=0\tcache_hits=3\tcache_misses=2\t"
            "cache_evictions=0\ttrainings=2\tretries=4\trate_limited=1\tbackoff_sec=1.5\n"
            "# resilience\tgoodput=0.6\tdeadline_missed=1\tfailovers=1\tdegraded_answers=0\t"
            "degraded_rejected=0\tbreaker_gated=2\tbreaker_trips=1\trefused_sleeps=1\t"
            "flushed_deadline=0\n"
            "# histogram\t4=1;11.31=1;22.63=1;512=1\n"
            "# trace\ttracks=3;spans=10\n");
  const std::string path = testing::TempDir() + "serving_report_pinned.json";
  report.save_json(path);
  std::ifstream in(path);
  std::stringstream json;
  json << in.rdbuf();
  EXPECT_EQ(json.str(),
            "{\n"
            "  \"tenants\": [\n"
            "    {\"tenant\": \"tenant-0\", \"requests\": 3, \"rows\": 5, \"ok\": 2, "
            "\"failed\": 1, \"rejected\": 0, \"mean_ms\": 176.6666667, \"p50_ms\": 19.02731384, "
            "\"p95_ms\": 430.5389646, \"p99_ms\": 430.5389646, \"max_ms\": 500},\n"
            "    {\"tenant\": \"tenant-1\", \"requests\": 2, \"rows\": 2, \"ok\": 1, "
            "\"failed\": 0, \"rejected\": 1, \"mean_ms\": 4, \"p50_ms\": 3.363585661, "
            "\"p95_ms\": 3.363585661, "
            "\"p99_ms\": 3.363585661, \"max_ms\": 4},\n"
            "    {\"tenant\": \"TOTAL\", \"requests\": 5, \"rows\": 7, \"ok\": 3, "
            "\"failed\": 1, \"rejected\": 1, \"mean_ms\": 133.5, \"p50_ms\": 9.51365692, "
            "\"p95_ms\": 430.5389646, "
            "\"p99_ms\": 430.5389646, \"max_ms\": 500}\n"
            "  ],\n"
            "  \"serving\": {\"batches\": 3, \"mean_batch_rows\": 2.333333333, "
            "\"occupancy\": 0.2916666667, \"throughput_rows_per_sec\": 0.5833333333, "
            "\"simulated_sec\": 12, \"flushed_full\": 1, \"flushed_linger\": 2, "
            "\"flushed_forced\": 0, \"cache_hits\": 3, \"cache_misses\": 2, "
            "\"cache_evictions\": 0, \"trainings\": 2, \"retries\": 4, \"rate_limited\": 1, "
            "\"backoff_sec\": 1.5},\n"
            "  \"resilience\": {\"goodput\": 0.6, \"deadline_missed\": 1, \"failovers\": 1, "
            "\"degraded_answers\": 0, \"degraded_rejected\": 0, \"breaker_gated\": 2, "
            "\"breaker_trips\": 1, \"refused_sleeps\": 1, \"flushed_deadline\": 0},\n"
            "  \"histogram\": \"4=1;11.31=1;22.63=1;512=1\",\n"
            "  \"trace\": \"tracks=3;spans=10\"\n"
            "}\n");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Fault tolerance: chaos serving and the degradation ladder.

/// The pre-resilience TSV format, reconstructed field by field.  This is the
/// byte-lock: with every resilience knob off, ServingReport::write_tsv must
/// produce exactly these bytes — no new columns, no new trailer lines.
std::string legacy_tsv(const ServingReport& report) {
  std::ostringstream out;
  out.precision(10);
  out << "tenant\trequests\trows\tok\tfailed\trejected\tmean_ms\tp50_ms\tp95_ms"
         "\tp99_ms\tmax_ms\n";
  const auto row = [&out](const TenantServingStats& t) {
    out << t.tenant << '\t' << t.requests << '\t' << t.rows << '\t' << t.ok << '\t'
        << t.failed << '\t' << t.rejected << '\t'
        << t.latency.mean_seconds() * 1000.0 << '\t'
        << t.latency.quantile(0.50) * 1000.0 << '\t'
        << t.latency.quantile(0.95) * 1000.0 << '\t'
        << t.latency.quantile(0.99) * 1000.0 << '\t'
        << t.latency.max_seconds() * 1000.0 << '\n';
  };
  for (const auto& t : report.tenants) row(t);
  TenantServingStats total;
  total.tenant = "TOTAL";
  total.requests = report.totals.requests;
  total.rows = report.totals.rows;
  total.ok = report.totals.ok;
  total.failed = report.totals.failed;
  total.rejected = report.totals.rejected;
  total.latency = report.totals.latency;
  row(total);
  out << "# serving\tbatches=" << report.totals.batches
      << "\tmean_batch_rows=" << report.totals.mean_batch_rows()
      << "\toccupancy=" << report.totals.batch_occupancy(report.max_batch_rows)
      << "\tthroughput_rows_per_sec=" << report.totals.throughput_rows_per_sec()
      << "\tsimulated_sec=" << report.totals.simulated_seconds
      << "\tflushed_full=" << report.totals.flushed_full
      << "\tflushed_linger=" << report.totals.flushed_linger
      << "\tflushed_forced=" << report.totals.flushed_forced
      << "\tcache_hits=" << report.totals.cache_hits
      << "\tcache_misses=" << report.totals.cache_misses
      << "\tcache_evictions=" << report.totals.cache_evictions
      << "\ttrainings=" << report.totals.trainings
      << "\tretries=" << report.totals.retries
      << "\trate_limited=" << report.totals.rate_limited
      << "\tbackoff_sec=" << report.totals.backoff_seconds << '\n';
  out << "# histogram\t" << report.totals.latency.encode() << '\n';
  return out.str();
}

TEST(ChaosServingTest, ChaosOffReportIsByteIdenticalToLegacyFormat) {
  const auto tenants = make_serving_tenants(3, {"Local", "Google"}, 21);
  ServingWorkloadOptions options;
  options.requests = 150;
  options.seed = 21;
  const auto result = run_serving_workload(tenants, options);
  ASSERT_FALSE(result.report.resilience)
      << "default options must not switch the report into resilience mode";
  std::ostringstream out;
  result.report.write_tsv(out);
  EXPECT_EQ(out.str(), legacy_tsv(result.report));
}

struct StormRun {
  std::string tsv;
  std::vector<QueryResult> results;  // ticket order
  ServingStats stats;
};

/// One deterministic chaos-storm serving run: chunked submits over Poisson
/// -free fixed arrivals, the full ladder armed (deadline + breaker +
/// failover + last-known-good), chaos profile "storm" plus extra scalar
/// faults on both platforms.
StormRun run_storm(std::size_t chunk, std::uint64_t seed) {
  ServingOptions options;
  options.max_batch_rows = chunk;
  options.linger_seconds = 0.05;
  options.chaos_profile = "storm";
  options.fault_rate = 0.15;
  options.deadline_seconds = 30.0;
  options.fallback_platform = "Google";
  options.serve_last_known_good = true;
  options.breaker.enabled = true;
  options.breaker.failure_threshold = 3;
  options.breaker.cooldown_seconds = 120.0;
  options.breaker.max_probes = 4;
  options.retry.max_attempts = 3;

  std::vector<PlatformPtr> roster;
  roster.push_back(make_platform("Local"));
  roster.push_back(make_platform("Google"));
  QueryRouter router(roster, "default", seed, options);
  const Dataset train = serving_data(17);
  const auto session = router.open_session("t0", "Local", train, {}, 55);
  EXPECT_TRUE(session.has_value()) << router.last_error();

  StormRun run;
  if (!session) return run;
  std::vector<QueryRouter::Ticket> tickets;
  double t = 0.0;
  for (int i = 0; i < 120; ++i) {
    t += 2.5;  // fixed arrival spacing: storms sweep over the request stream
    router.advance_to(t);
    Matrix q(1, train.x().cols());
    const auto src = train.x().row(static_cast<std::size_t>(i) % train.x().rows());
    std::copy(src.begin(), src.end(), q.row(0).begin());
    const auto ticket = router.submit(*session, q);
    EXPECT_TRUE(ticket.has_value());
    if (ticket) tickets.push_back(*ticket);
  }
  router.drain();

  for (const auto ticket : tickets) run.results.push_back(router.result(ticket));
  run.stats = router.stats();
  std::ostringstream out;
  router.report().write_tsv(out);
  run.tsv = out.str();
  return run;
}

TEST(ChaosServingTest, StormResolvesEveryRequestAndRerunsAreByteIdentical) {
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    const StormRun a = run_storm(chunk, 9001);
    const StormRun b = run_storm(chunk, 9001);
    ASSERT_EQ(a.results.size(), 120u) << "chunk=" << chunk;

    // Liveness under chaos: every accepted request resolves — with labels,
    // a degraded reject or a deadline miss, but never a hang.
    for (std::size_t i = 0; i < a.results.size(); ++i) {
      const QueryResult& r = a.results[i];
      EXPECT_TRUE(r.done) << "chunk=" << chunk << " ticket=" << i;
      EXPECT_NE(r.outcome, QueryOutcome::kPending) << "chunk=" << chunk;
      if (r.ok) EXPECT_FALSE(r.labels.empty());
    }
    // The resolved requests partition into the SLO buckets exactly.
    EXPECT_EQ(a.stats.requests,
              a.stats.ok + a.stats.failed + a.stats.rejected +
                  a.stats.deadline_missed + a.stats.degraded_rejected)
        << "chunk=" << chunk;
    EXPECT_GT(a.stats.goodput(), 0.0) << "chunk=" << chunk;

    // Determinism under chaos: a rerun of the same seed is byte-identical —
    // same report bytes, same per-ticket outcomes and labels.
    EXPECT_EQ(a.tsv, b.tsv) << "chunk=" << chunk;
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
      EXPECT_EQ(a.results[i].outcome, b.results[i].outcome) << "ticket " << i;
      EXPECT_EQ(a.results[i].labels, b.results[i].labels) << "ticket " << i;
      EXPECT_DOUBLE_EQ(a.results[i].complete_seconds, b.results[i].complete_seconds);
    }
  }
}

TEST(ChaosServingTest, ResilienceTelemetryIsGatedIntoReports) {
  const StormRun storm = run_storm(7, 77);
  EXPECT_NE(storm.tsv.find("# resilience\tgoodput="), std::string::npos);

  // And stays out of chaos-off reports (locked byte-exactly above; this is
  // the cheap smoke check).
  const auto tenants = make_serving_tenants(2, {"Local"}, 5);
  ServingWorkloadOptions options;
  options.requests = 40;
  const auto result = run_serving_workload(tenants, options);
  std::ostringstream out;
  result.report.write_tsv(out);
  EXPECT_EQ(out.str().find("# resilience"), std::string::npos);
}

/// Fixture for deterministic ladder-rung tests: the "strict" quota admits 5
/// requests per rolling minute and retries are disabled, so the primary
/// platform's bucket drains after exactly 3 predicts (open_session spent 2
/// on upload+train) and every later dispatch fails the same way, rerun after
/// rerun — no chaos randomness involved.
class DegradationLadderTest : public ::testing::Test {
 protected:
  ServingOptions ladder_options() {
    ServingOptions options;
    options.max_batch_rows = 1;  // flush on every submit
    options.retry.max_attempts = 1;
    return options;
  }

  /// Router over {Local, Google} with one session on Local; submits one-row
  /// queries and returns the per-request results.
  std::vector<QueryResult> serve(const ServingOptions& options, int requests,
                                 ServingStats* stats = nullptr) {
    std::vector<PlatformPtr> roster;
    roster.push_back(make_platform("Local"));
    roster.push_back(make_platform("Google"));
    QueryRouter router(roster, "strict", 3, options);
    const Dataset train = serving_data(15);
    const auto session = router.open_session("t0", "Local", train, {}, 44);
    EXPECT_TRUE(session.has_value()) << router.last_error();
    if (!session) return {};
    std::vector<QueryRouter::Ticket> tickets;
    for (int i = 0; i < requests; ++i) {
      Matrix q(1, train.x().cols());
      const auto src = train.x().row(static_cast<std::size_t>(i) % train.x().rows());
      std::copy(src.begin(), src.end(), q.row(0).begin());
      const auto ticket = router.submit(*session, q);
      EXPECT_TRUE(ticket.has_value());
      if (ticket) tickets.push_back(*ticket);
      router.drain();
    }
    std::vector<QueryResult> results;
    for (const auto ticket : tickets) results.push_back(router.result(ticket));
    if (stats) *stats = router.stats();
    return results;
  }
};

TEST_F(DegradationLadderTest, FailoverRungRetrainsOnFallbackDeterministically) {
  ServingOptions options = ladder_options();
  options.fallback_platform = "Google";
  ServingStats stats;
  const auto results = serve(options, 6, &stats);
  ASSERT_EQ(results.size(), 6u);

  const Dataset train = serving_data(15);
  // Requests 1-3 drain Local's remaining strict-quota budget; 4-6 fail over.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(results[i].outcome, QueryOutcome::kOk) << "request " << i;
    EXPECT_EQ(results[i].labels,
              direct_labels("Local", train, slice_row(train, i), 44));
  }
  for (int i = 3; i < 6; ++i) {
    EXPECT_EQ(results[i].outcome, QueryOutcome::kFailover) << "request " << i;
    EXPECT_TRUE(results[i].ok);
    // Failover answers come from a Google model trained from the same
    // session seed: deterministic, and byte-identical to the direct path.
    EXPECT_EQ(results[i].labels,
              direct_labels("Google", train, slice_row(train, i), 44));
  }
  EXPECT_EQ(stats.failovers, 3u);
  EXPECT_EQ(stats.ok, 6u);  // failover answers are still in-budget answers
  EXPECT_EQ(stats.failed, 0u);
}

TEST_F(DegradationLadderTest, LastKnownGoodRungServesRetainedModel) {
  // No fallback: once Local's quota drains, the retained model answers.
  ServingOptions options = ladder_options();
  options.serve_last_known_good = true;
  ServingStats stats;
  const auto results = serve(options, 6, &stats);
  ASSERT_EQ(results.size(), 6u);

  const Dataset train = serving_data(15);
  for (int i = 3; i < 6; ++i) {
    EXPECT_EQ(results[i].outcome, QueryOutcome::kLastKnownGood) << "request " << i;
    EXPECT_TRUE(results[i].ok);
    // The retained model is the deterministic seed-44 train, so last-known
    // -good labels equal the direct path even though no service was touched.
    EXPECT_EQ(results[i].labels,
              direct_labels("Local", train, slice_row(train, i), 44));
  }
  EXPECT_EQ(stats.degraded_answers, 3u);
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST_F(DegradationLadderTest, DegradedRejectRungReportsDegradedStatus) {
  // Ladder configured (failover to Google) but Google's bucket drains too:
  // after three failovers the bottom rung rejects with the degraded status.
  ServingOptions options = ladder_options();
  options.fallback_platform = "Google";
  ServingStats stats;
  const auto results = serve(options, 9, &stats);
  ASSERT_EQ(results.size(), 9u);
  for (int i = 6; i < 9; ++i) {
    EXPECT_EQ(results[i].outcome, QueryOutcome::kDegraded) << "request " << i;
    EXPECT_FALSE(results[i].ok);
    EXPECT_EQ(results[i].error.rfind("degraded:", 0), 0u) << results[i].error;
  }
  EXPECT_EQ(stats.failovers, 3u);
  EXPECT_EQ(stats.degraded_rejected, 3u);
  EXPECT_EQ(stats.failed, 0u);  // degraded rejects are not classic failures
}

TEST_F(DegradationLadderTest, OpenBreakerHealthGatesDispatch) {
  // With the breaker armed, repeated quota failures trip it; once open, the
  // router stops issuing requests to the platform instead of burning budget.
  ServingOptions options = ladder_options();
  options.breaker.enabled = true;
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown_seconds = 1e6;  // never recovers inside the test
  ServingStats stats;

  std::vector<PlatformPtr> roster;
  roster.push_back(make_platform("Local"));
  roster.push_back(make_platform("Google"));
  QueryRouter router(roster, "strict", 3, options);
  const Dataset train = serving_data(15);
  const auto session = router.open_session("t0", "Local", train, {}, 44);
  ASSERT_TRUE(session.has_value());
  for (int i = 0; i < 8; ++i) {
    Matrix q(1, train.x().cols());
    std::copy(train.x().row(0).begin(), train.x().row(0).end(), q.row(0).begin());
    const std::size_t before = router.platform_stats("Local").requests;
    const auto ticket = router.submit(*session, q);
    ASSERT_TRUE(ticket.has_value());
    router.drain();
    if (router.result(*ticket).error == "breaker:open") {
      // Health-gated: the flush issued no service request at all.
      EXPECT_EQ(router.platform_stats("Local").requests, before) << "request " << i;
    }
  }
  stats = router.stats();
  EXPECT_GE(stats.breaker_trips, 1u);
  EXPECT_GT(stats.breaker_gated, 0u);
  // 3 served before the quota drained, 2 failures to trip, the rest gated.
  EXPECT_EQ(stats.breaker_gated, 3u);
}

TEST_F(DegradationLadderTest, DeadlineBudgetRefusesOverrunningSleeps) {
  // Strict quota + a 5s budget: the Retry-After stall (~a minute) would
  // overrun the deadline, so the retry layer refuses the sleep and the
  // request fails fast — within budget — instead of hanging.
  ServingOptions options = ladder_options();
  options.retry.max_attempts = 6;  // retries allowed, but budget-bounded
  options.deadline_seconds = 5.0;
  ServingStats stats;
  const auto results = serve(options, 5, &stats);
  ASSERT_EQ(results.size(), 5u);
  for (int i = 3; i < 5; ++i) {
    EXPECT_EQ(results[i].outcome, QueryOutcome::kFailed) << "request " << i;
    EXPECT_LE(results[i].complete_seconds, results[i].deadline) << "request " << i;
  }
  EXPECT_GT(stats.refused_sleeps, 0u);
  EXPECT_EQ(stats.deadline_missed, 0u) << "refused in budget, not resolved late";
}

TEST_F(DegradationLadderTest, SlowPlatformDeadlineOverrunCountsAsMissNotHang) {
  // ABM's simulated base latency is 2s; a 0.5s budget cannot be met.  The
  // request still resolves — labels and all — and is counted as a deadline
  // miss rather than blocking the router.
  std::vector<PlatformPtr> roster;
  roster.push_back(make_platform("ABM"));
  ServingOptions options;
  options.max_batch_rows = 4;
  QueryRouter router(roster, "default", 3, options);
  const Dataset train = serving_data(16);
  const auto session = router.open_session("t0", "ABM", train, {}, 44);
  ASSERT_TRUE(session.has_value());
  Matrix q(1, train.x().cols());
  std::copy(train.x().row(0).begin(), train.x().row(0).end(), q.row(0).begin());
  const auto ticket = router.submit(*session, q, /*deadline_seconds=*/0.5);
  ASSERT_TRUE(ticket.has_value());
  router.drain();
  const QueryResult& r = router.result(*ticket);
  EXPECT_TRUE(r.done);
  EXPECT_TRUE(r.ok) << "late answers still carry labels";
  EXPECT_EQ(r.outcome, QueryOutcome::kDeadlineMissed);
  EXPECT_GT(r.complete_seconds, r.deadline);
  const ServingStats stats = router.stats();
  EXPECT_EQ(stats.deadline_missed, 1u);
  EXPECT_EQ(stats.ok, 0u);
  EXPECT_DOUBLE_EQ(stats.goodput(), 0.0);
}

TEST_F(DegradationLadderTest, BudgetDeadlineFlushesBatchBeforeLingerExpires) {
  // A request whose budget is tighter than the linger must not sit in the
  // queue: the batch flushes at the budget deadline (its own flush cause).
  std::vector<PlatformPtr> roster;
  roster.push_back(make_platform("Local"));
  ServingOptions options;
  options.max_batch_rows = 1000;
  options.linger_seconds = 1e9;  // linger alone would never flush
  QueryRouter router(roster, "default", 3, options);
  const Dataset train = serving_data(15);
  const auto session = router.open_session("t0", "Local", train, {}, 44);
  ASSERT_TRUE(session.has_value());
  Matrix q(1, train.x().cols());
  std::copy(train.x().row(0).begin(), train.x().row(0).end(), q.row(0).begin());
  const auto ticket = router.submit(*session, q, /*deadline_seconds=*/1.0);
  ASSERT_TRUE(ticket.has_value());
  router.advance_to(router.now() + 10.0);
  const QueryResult& r = router.result(*ticket);
  EXPECT_TRUE(r.done) << "budget deadline must flush the lingering batch";
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(router.stats().flushed_deadline, 1u);
  EXPECT_EQ(router.stats().flushed_linger, 0u);
}

}  // namespace
}  // namespace mlaas
