#include "util/metrics.h"

#include <gtest/gtest.h>

#include "platform/service.h"

namespace mlaas {
namespace {

TEST(MetricsRegistry, KeepsRegistrationOrder) {
  MetricsRegistry r;
  r.counter("zeta") = 1.0;
  r.counter("alpha") = 2.0;
  r.counter("mid") = 3.0;
  ASSERT_EQ(r.entries().size(), 3u);
  EXPECT_EQ(r.entries()[0].name, "zeta");
  EXPECT_EQ(r.entries()[1].name, "alpha");
  EXPECT_EQ(r.entries()[2].name, "mid");
  EXPECT_EQ(r.encode(), "zeta=1;alpha=2;mid=3");
}

TEST(MetricsRegistry, CounterIsRegisterOrLookup) {
  MetricsRegistry r;
  r.counter("hits") += 2.0;
  r.counter("hits") += 3.0;
  EXPECT_EQ(r.entries().size(), 1u);
  EXPECT_DOUBLE_EQ(r.value("hits"), 5.0);
  EXPECT_THROW(r.value("misses"), std::out_of_range);
}

TEST(MetricsRegistry, EncodeFormatsIntegersWithoutDecimalPoint) {
  MetricsRegistry r;
  r.counter("count") = 42.0;
  r.counter("ratio") = 0.5;
  EXPECT_EQ(r.encode(), "count=42;ratio=0.5");
}

TEST(MetricsRegistry, EncodeRoundTripsDoublesExactly) {
  const double v = 0.1 + 0.2;  // classic non-representable sum
  EXPECT_EQ(std::stod(format_metric_value(v)), v);
  EXPECT_EQ(format_metric_value(3.0), "3");
  EXPECT_EQ(format_metric_value(-17.0), "-17");
}

/// Toy stats struct exercising the visit_fields contract directly.
struct ToyStats {
  std::size_t count = 0;
  double seconds = 0.0;

  template <typename Self, typename Visitor>
  static void visit_fields(Self& self, Visitor&& visit) {
    visit("count", self.count);
    visit("seconds", self.seconds);
  }
};

TEST(MetricsStats, MergeStatsAddsFieldwise) {
  ToyStats a, b;
  a.count = 3;
  a.seconds = 1.5;
  b.count = 4;
  b.seconds = 2.25;
  merge_stats(a, b);
  EXPECT_EQ(a.count, 7u);
  EXPECT_DOUBLE_EQ(a.seconds, 3.75);
}

TEST(MetricsStats, ServiceStatsMergeMatchesLegacyFieldList) {
  // ServiceStats::merge now routes through merge_stats; this locks that the
  // visitor covers every counter the hand-rolled version added.
  ServiceStats a, b;
  a.requests = 3;
  a.uploads = 1;
  a.train_cpu_seconds = 0.5;
  a.predict_cpu_seconds = 0.125;
  b.requests = 2;
  b.trainings = 4;
  b.predictions = 9;
  b.datasets_deleted = 1;
  b.models_deleted = 2;
  b.rate_limited = 5;
  b.transient_errors = 6;
  b.server_errors = 7;
  b.unavailable = 8;
  b.train_cpu_seconds = 0.25;
  b.predict_cpu_seconds = 0.375;
  a.merge(b);
  EXPECT_EQ(a.requests, 5u);
  EXPECT_EQ(a.uploads, 1u);
  EXPECT_EQ(a.trainings, 4u);
  EXPECT_EQ(a.predictions, 9u);
  EXPECT_EQ(a.datasets_deleted, 1u);
  EXPECT_EQ(a.models_deleted, 2u);
  EXPECT_EQ(a.rate_limited, 5u);
  EXPECT_EQ(a.transient_errors, 6u);
  EXPECT_EQ(a.server_errors, 7u);
  EXPECT_EQ(a.unavailable, 8u);
  EXPECT_DOUBLE_EQ(a.train_cpu_seconds, 0.75);
  EXPECT_DOUBLE_EQ(a.predict_cpu_seconds, 0.5);
}

}  // namespace
}  // namespace mlaas
