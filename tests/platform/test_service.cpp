#include "platform/service.h"

#include "platform/all_platforms.h"

#include <gtest/gtest.h>

#include "data/generators.h"
#include "ml/metrics.h"

namespace mlaas {
namespace {

Dataset small_data(std::uint64_t seed = 1) { return make_blobs(80, 3, 0.8, 5.0, seed); }

/// A service over one platform of a shared roster: platforms are const and
/// `train` is const, so every service of a test binary can share them.
MlaasService make_service(ServiceQuota quota = {}, const std::string& platform = "Local",
                          std::uint64_t seed = 1) {
  static const std::vector<PlatformPtr> roster = make_all_platforms();
  for (const auto& p : roster) {
    if (p->name() == platform) return MlaasService(*p, quota, seed);
  }
  throw std::invalid_argument("make_service: unknown platform " + platform);
}

RetryPolicy attempts(int max_attempts) {
  RetryPolicy policy;
  policy.max_attempts = max_attempts;
  return policy;
}

/// Upload, train and predict through `client`, the campaign's sequence of
/// retried calls; the labels, or nullopt once a step fails.
std::optional<std::vector<int>> round_trip(RetryingClient& client, const Dataset& train,
                                           const PipelineConfig& config = {}) {
  std::string dataset, model;
  std::vector<int> labels;
  if (client.upload(train, &dataset) != ServiceStatus::kOk ||
      client.train(dataset, config, &model) != ServiceStatus::kOk ||
      client.predict(model, train.x(), &labels) != ServiceStatus::kOk) {
    return std::nullopt;
  }
  return labels;
}

TEST(Service, EndToEndFlowWorks) {
  auto service = make_service();
  std::string ds, model;
  ASSERT_EQ(service.upload(small_data(), &ds), ServiceStatus::kOk);
  ASSERT_EQ(service.train(ds, PipelineConfig{}, &model), ServiceStatus::kOk);
  std::vector<int> labels;
  const Dataset query = small_data(1);  // same generating process as train
  ASSERT_EQ(service.predict(model, query.x(), &labels), ServiceStatus::kOk);
  EXPECT_EQ(labels.size(), query.n_samples());
  EXPECT_GT(accuracy_score(query.y(), labels), 0.8);
}

TEST(Service, UnknownHandlesAreNotFound) {
  auto service = make_service();
  std::string model;
  EXPECT_EQ(service.train("ds-404", {}, &model), ServiceStatus::kNotFound);
  std::vector<int> labels;
  EXPECT_EQ(service.predict("model-404", small_data().x(), &labels),
            ServiceStatus::kNotFound);
}

TEST(Service, BadConfigIsBadRequest) {
  auto service = make_service({}, "Amazon");
  std::string ds, model;
  ASSERT_EQ(service.upload(small_data(), &ds), ServiceStatus::kOk);
  PipelineConfig config;
  config.classifier = "mlp";  // Amazon: classifier is fixed
  EXPECT_EQ(service.train(ds, config, &model), ServiceStatus::kBadRequest);
}

TEST(Service, RateLimitKicksInWithinWindow) {
  ServiceQuota quota;
  quota.requests_per_window = 3;
  quota.window_seconds = 1e9;  // effectively never drains
  auto service = make_service(quota);
  std::string ds;
  EXPECT_EQ(service.upload(small_data(1), &ds), ServiceStatus::kOk);
  EXPECT_EQ(service.upload(small_data(2), &ds), ServiceStatus::kOk);
  EXPECT_EQ(service.upload(small_data(3), &ds), ServiceStatus::kOk);
  EXPECT_EQ(service.upload(small_data(4), &ds), ServiceStatus::kRateLimited);
  EXPECT_EQ(service.stats().rate_limited, 1u);
}

TEST(Service, RateLimitDrainsWithTheClock) {
  ServiceQuota quota;
  quota.requests_per_window = 1;
  quota.window_seconds = 10.0;
  auto service = make_service(quota);
  std::string ds;
  EXPECT_EQ(service.upload(small_data(1), &ds), ServiceStatus::kOk);
  EXPECT_EQ(service.upload(small_data(2), &ds), ServiceStatus::kRateLimited);
  service.advance_clock(11.0);
  EXPECT_EQ(service.upload(small_data(3), &ds), ServiceStatus::kOk);
}

TEST(Service, TrainingQuotaIsPermanent) {
  ServiceQuota quota;
  quota.max_training_jobs = 1;
  auto service = make_service(quota);
  std::string ds, model;
  ASSERT_EQ(service.upload(small_data(), &ds), ServiceStatus::kOk);
  ASSERT_EQ(service.train(ds, {}, &model), ServiceStatus::kOk);
  EXPECT_EQ(service.train(ds, {}, &model), ServiceStatus::kQuotaExhausted);
}

TEST(Service, ClockAdvancesWithLatencyModel) {
  ServiceQuota quota;
  quota.base_latency_seconds = 1.0;
  quota.per_sample_latency_seconds = 0.01;
  auto service = make_service(quota);
  std::string ds;
  ASSERT_EQ(service.upload(small_data(), &ds), ServiceStatus::kOk);  // 80 samples
  EXPECT_NEAR(service.now(), 1.0 + 0.8, 1e-9);
}

TEST(Service, FaultInjectionIsDeterministic) {
  ServiceQuota quota;
  quota.fault_rate = 0.5;
  auto a = make_service(quota, "Local", 7);
  auto b = make_service(quota, "Local", 7);
  std::string ha, hb;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.upload(small_data(), &ha), b.upload(small_data(), &hb));
  }
  EXPECT_GT(a.stats().transient_errors, 0u);
}

TEST(RetryingClientTest, SucceedsDespiteTransientFaults) {
  ServiceQuota quota;
  quota.fault_rate = 0.4;
  auto service = make_service(quota, "Local", 11);
  RetryingClient client(service, attempts(8));
  const Dataset train = small_data(1);
  const auto labels = round_trip(client, train);
  ASSERT_TRUE(labels.has_value());
  EXPECT_GT(accuracy_score(train.y(), *labels), 0.8);
  EXPECT_GT(client.total_retries(), 0u);
}

TEST(RetryingClientTest, BacksOffThroughRateLimits) {
  ServiceQuota quota;
  quota.requests_per_window = 1;
  quota.window_seconds = 2.0;  // backoff (1s, 2s, ...) outlasts the window
  auto service = make_service(quota);
  RetryingClient client(service, attempts(6));
  const Dataset train = small_data(1);
  const auto labels = round_trip(client, train);
  ASSERT_TRUE(labels.has_value());
  EXPECT_GT(client.total_retries(), 0u);
}

TEST(RetryingClientTest, PermanentErrorsAreNotRetried) {
  ServiceQuota quota;
  quota.max_training_jobs = 0;
  auto service = make_service(quota, "Amazon");
  RetryingClient client(service, RetryPolicy{});
  PipelineConfig bad;
  bad.classifier = "mlp";
  const Dataset train = small_data(1);
  const auto before = service.stats().requests;
  EXPECT_FALSE(round_trip(client, train, bad).has_value());
  // upload + exactly one train attempt (no retries of kBadRequest).
  EXPECT_EQ(service.stats().requests, before + 2);
}

TEST(Service, RetryAfterHintAtExactExpiryStillRejects) {
  // Boundary contract behind RetryingClient's +1e-6 wake-up epsilon: admit()
  // ages window entries with a strict `t < window_start` comparison, so a
  // request landing exactly when the oldest entry expires is still rejected.
  ServiceQuota quota;
  quota.requests_per_window = 1;
  quota.window_seconds = 10.0;
  quota.base_latency_seconds = 0.0;
  quota.per_sample_latency_seconds = 0.0;
  auto service = make_service(quota);
  std::string ds;
  ASSERT_EQ(service.upload(small_data(1), &ds), ServiceStatus::kOk);  // t=0
  ASSERT_EQ(service.upload(small_data(2), &ds), ServiceStatus::kRateLimited);
  EXPECT_DOUBLE_EQ(service.retry_after_seconds(), 10.0);
  // Exactly at window expiry the t=0 entry still counts against the window.
  service.advance_clock(10.0);
  EXPECT_EQ(service.upload(small_data(3), &ds), ServiceStatus::kRateLimited);
  EXPECT_DOUBLE_EQ(service.retry_after_seconds(), 0.0);
  // One tick past expiry the entry has aged out.
  service.advance_clock(1e-6);
  EXPECT_EQ(service.upload(small_data(4), &ds), ServiceStatus::kOk);
}

TEST(RetryingClientTest, RetryAfterHintAtExactExpiryAdmitsWithoutExtraAttempt) {
  // The client sleeps retry_after_seconds() + 1e-6: strictly past expiry, so
  // each rate-limited call burns exactly ONE rejected attempt.  Sleeping the
  // bare hint would land on the t == window_start boundary above and get
  // rejected a second time per call, doubling rate_limited and the retries.
  ServiceQuota quota;
  quota.requests_per_window = 1;
  quota.window_seconds = 500.0;  // dwarfs exponential backoff: hint decides
  quota.base_latency_seconds = 0.0;
  quota.per_sample_latency_seconds = 0.0;
  auto service = make_service(quota);
  RetryingClient client(service, attempts(3));
  const Dataset train = small_data(1);
  const auto labels = round_trip(client, train);
  ASSERT_TRUE(labels.has_value());
  // upload admits at t=0; train and predict each hit the full window once and
  // succeed on their first retry — no attempt wasted at the exact boundary.
  EXPECT_EQ(service.stats().rate_limited, 2u);
  EXPECT_EQ(client.total_retries(), 2u);
  EXPECT_NEAR(client.total_backoff_seconds(), 2 * (500.0 + 1e-6), 1e-6);
}

TEST(ServiceStatusTest, Names) {
  EXPECT_EQ(to_string(ServiceStatus::kOk), "ok");
  EXPECT_EQ(to_string(ServiceStatus::kRateLimited), "rate-limited");
  EXPECT_EQ(to_string(ServiceStatus::kQuotaExhausted), "quota-exhausted");
  EXPECT_EQ(to_string(ServiceStatus::kServerError), "server-error");
  EXPECT_TRUE(is_retryable(ServiceStatus::kRateLimited));
  EXPECT_TRUE(is_retryable(ServiceStatus::kTransientError));
  EXPECT_FALSE(is_retryable(ServiceStatus::kQuotaExhausted));
  EXPECT_FALSE(is_retryable(ServiceStatus::kServerError));
}

TEST(Service, ExplicitTrainSeedReproducesDirectCall) {
  const Dataset data = small_data(3);
  const auto direct_platform = make_platform("Local");
  const auto direct_model = direct_platform->train(data, {}, /*seed=*/1234);
  const auto direct_labels = direct_model->predict(data.x());

  auto service = make_service();
  std::string ds, model;
  ASSERT_EQ(service.upload(data, &ds), ServiceStatus::kOk);
  double train_cpu = -1.0;
  ASSERT_EQ(service.train(ds, {}, &model, /*seed=*/1234, &train_cpu), ServiceStatus::kOk);
  EXPECT_GE(train_cpu, 0.0);
  EXPECT_GT(service.stats().train_cpu_seconds, 0.0);
  std::vector<int> labels;
  double predict_cpu = -1.0;
  ASSERT_EQ(service.predict(model, data.x(), &labels, &predict_cpu), ServiceStatus::kOk);
  EXPECT_EQ(labels, direct_labels);
  EXPECT_GE(predict_cpu, 0.0);
  EXPECT_GE(service.stats().predict_cpu_seconds, predict_cpu);
}

/// A platform whose training always blows up with a non-config error.
class ExplodingPlatform final : public Platform {
 public:
  std::string name() const override { return "Exploding"; }
  int complexity_rank() const override { return 0; }
  ControlSurface controls() const override { return {}; }
  TrainedModelPtr train(const Dataset&, const PipelineConfig&,
                        std::uint64_t) const override {
    throw std::runtime_error("backend fell over");
  }
};

TEST(Service, PlatformCrashBecomesServerErrorNotException) {
  ExplodingPlatform exploding;
  MlaasService service(exploding, ServiceQuota{}, /*seed=*/1);
  std::string ds, model;
  ASSERT_EQ(service.upload(small_data(), &ds), ServiceStatus::kOk);
  EXPECT_EQ(service.train(ds, {}, &model), ServiceStatus::kServerError);
  EXPECT_EQ(service.last_error(), "backend fell over");
  EXPECT_EQ(service.stats().server_errors, 1u);
  // Permanent: the retrying client gives up immediately.
  RetryingClient client(service, attempts(5));
  const auto before = service.stats().requests;
  EXPECT_EQ(client.train(ds, {}, &model), ServiceStatus::kServerError);
  EXPECT_EQ(service.stats().requests, before + 1);
}

TEST(Service, NonOwningConstructorSharesThePlatform) {
  const auto platform = make_platform("Local");
  MlaasService a(*platform, ServiceQuota{}, 1);
  MlaasService b(*platform, ServiceQuota{}, 1);
  std::string ds_a, ds_b;
  EXPECT_EQ(a.upload(small_data(), &ds_a), ServiceStatus::kOk);
  EXPECT_EQ(b.upload(small_data(), &ds_b), ServiceStatus::kOk);
  EXPECT_EQ(a.platform_name(), "Local");
}

TEST(Service, RetryAfterHintMatchesWindowDrain) {
  ServiceQuota quota;
  quota.requests_per_window = 1;
  quota.window_seconds = 10.0;
  quota.base_latency_seconds = 0.0;
  quota.per_sample_latency_seconds = 0.0;
  auto service = make_service(quota);
  std::string ds;
  ASSERT_EQ(service.upload(small_data(1), &ds), ServiceStatus::kOk);
  ASSERT_EQ(service.upload(small_data(2), &ds), ServiceStatus::kRateLimited);
  // The first request landed at t=0; the window drains at t=10.
  EXPECT_NEAR(service.retry_after_seconds(), 10.0, 1e-9);
  service.advance_clock(service.retry_after_seconds() + 1e-6);
  EXPECT_EQ(service.upload(small_data(3), &ds), ServiceStatus::kOk);
}

TEST(RetryingClientTest, LongWindowDoesNotExhaustTheBudget) {
  ServiceQuota quota;
  quota.requests_per_window = 2;
  quota.window_seconds = 3600.0;  // far beyond the exponential-backoff reach
  auto service = make_service(quota);
  RetryingClient client(service, attempts(3));
  const Dataset train = small_data(1);
  // upload + train fill the window; predict must wait the window out via the
  // Retry-After hint instead of burning all attempts on short backoffs.
  const auto labels = round_trip(client, train);
  ASSERT_TRUE(labels.has_value());
  EXPECT_GT(client.total_backoff_seconds(), 3000.0);
}

TEST(ServiceStatsTest, MergeAccumulates) {
  ServiceStats a, b;
  a.requests = 3;
  a.trainings = 1;
  a.train_cpu_seconds = 0.5;
  b.requests = 2;
  b.rate_limited = 4;
  b.train_cpu_seconds = 0.25;
  b.datasets_deleted = 2;
  b.models_deleted = 1;
  a.merge(b);
  EXPECT_EQ(a.requests, 5u);
  EXPECT_EQ(a.trainings, 1u);
  EXPECT_EQ(a.rate_limited, 4u);
  EXPECT_EQ(a.datasets_deleted, 2u);
  EXPECT_EQ(a.models_deleted, 1u);
  EXPECT_DOUBLE_EQ(a.train_cpu_seconds, 0.75);
}

TEST(Service, PredictionsCountRowsNotCalls) {
  auto service = make_service();
  std::string ds, model;
  const Dataset data = small_data(1);  // 80 rows
  ASSERT_EQ(service.upload(data, &ds), ServiceStatus::kOk);
  ASSERT_EQ(service.train(ds, {}, &model), ServiceStatus::kOk);
  std::vector<int> labels;
  ASSERT_EQ(service.predict(model, data.x(), &labels), ServiceStatus::kOk);
  EXPECT_EQ(service.stats().predictions, 80u);
  // One batched call and N single-row calls account identically: the unit
  // matches the per-sample latency the admission path already charges.
  Matrix one_row(1, data.x().cols());
  std::copy(data.x().row(0).begin(), data.x().row(0).end(), one_row.row(0).begin());
  ASSERT_EQ(service.predict(model, one_row, &labels), ServiceStatus::kOk);
  EXPECT_EQ(service.stats().predictions, 81u);
}

TEST(Service, DeleteReleasesHandles) {
  auto service = make_service();
  std::string ds, model;
  ASSERT_EQ(service.upload(small_data(), &ds), ServiceStatus::kOk);
  ASSERT_EQ(service.train(ds, {}, &model), ServiceStatus::kOk);
  EXPECT_EQ(service.dataset_count(), 1u);
  EXPECT_EQ(service.model_count(), 1u);

  EXPECT_EQ(service.delete_dataset(ds), ServiceStatus::kOk);
  EXPECT_EQ(service.delete_model(model), ServiceStatus::kOk);
  EXPECT_EQ(service.dataset_count(), 0u);
  EXPECT_EQ(service.model_count(), 0u);
  EXPECT_EQ(service.stats().datasets_deleted, 1u);
  EXPECT_EQ(service.stats().models_deleted, 1u);

  // Double-delete and stale use both surface as kNotFound.
  EXPECT_EQ(service.delete_dataset(ds), ServiceStatus::kNotFound);
  EXPECT_EQ(service.delete_model(model), ServiceStatus::kNotFound);
  std::vector<int> labels;
  EXPECT_EQ(service.predict(model, small_data().x(), &labels),
            ServiceStatus::kNotFound);
  std::string model2;
  EXPECT_EQ(service.train(ds, {}, &model2), ServiceStatus::kNotFound);
}

TEST(Service, DeletesAreNotAdmitted) {
  // Deletes are local bookkeeping: no clock advance, no rate-limit token, no
  // fault-RNG draw — so inserting them into an existing call sequence leaves
  // every other response (and cached campaign tables) byte-identical.
  ServiceQuota quota;
  quota.requests_per_window = 3;
  quota.window_seconds = 1e9;
  auto service = make_service(quota);
  std::string ds1, ds2, ds3;
  ASSERT_EQ(service.upload(small_data(1), &ds1), ServiceStatus::kOk);
  ASSERT_EQ(service.upload(small_data(2), &ds2), ServiceStatus::kOk);
  const double t = service.now();
  const auto requests = service.stats().requests;
  EXPECT_EQ(service.delete_dataset(ds1), ServiceStatus::kOk);
  EXPECT_DOUBLE_EQ(service.now(), t);
  EXPECT_EQ(service.stats().requests, requests);
  // The window still has exactly one admission slot left.
  ASSERT_EQ(service.upload(small_data(3), &ds3), ServiceStatus::kOk);
  EXPECT_EQ(service.upload(small_data(4), &ds1), ServiceStatus::kRateLimited);
}

TEST(QuotaProfileTest, NamedProfilesResolve) {
  EXPECT_EQ(quota_profile("default", "Google").requests_per_window, 100u);
  EXPECT_EQ(quota_profile("strict", "Google").requests_per_window, 5u);
  EXPECT_EQ(quota_profile("free-tier", "BigML").max_training_jobs, 10u);
  EXPECT_EQ(quota_profile("unlimited", "ABM").max_training_jobs, 0u);
  EXPECT_THROW(quota_profile("bogus", "Google"), std::invalid_argument);
  EXPECT_EQ(quota_profile_names().size(), 4u);
}

TEST(QuotaProfileTest, UnknownProfileErrorNamesTheProfile) {
  try {
    quota_profile("bogus-profile", "Google");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bogus-profile"), std::string::npos)
        << e.what();
  }
}

TEST(RetryingClientTest, NoIdleSleepAfterFinalAttempt) {
  ServiceQuota quota;
  quota.fault_rate = 1.0;  // every request fails transiently
  auto service = make_service(quota, "Local", 5);
  RetryPolicy policy;
  policy.max_attempts = 3;
  RetryingClient client(service, policy);
  std::string ds;
  EXPECT_EQ(client.upload(small_data(1), &ds), ServiceStatus::kTransientError);
  // Sleeps happen between attempts only: 1s + 2s, never a third sleep after
  // the budget is spent.
  EXPECT_EQ(client.total_retries(), 2u);
  EXPECT_DOUBLE_EQ(client.total_backoff_seconds(), 3.0);
}

TEST(RetryingClientTest, RetryAfterHintOnFinalAttemptIsNotSlept) {
  ServiceQuota quota;
  quota.requests_per_window = 1;
  quota.window_seconds = 3600.0;
  quota.base_latency_seconds = 0.0;
  quota.per_sample_latency_seconds = 0.0;
  auto service = make_service(quota);
  RetryPolicy policy;
  policy.max_attempts = 1;  // the first attempt is also the last
  RetryingClient client(service, policy);
  std::string ds, model;
  ASSERT_EQ(client.upload(small_data(1), &ds), ServiceStatus::kOk);
  // The train attempt is rate-limited and carries an hour-long Retry-After
  // hint; with no attempts left the client must report, not sleep it out.
  EXPECT_EQ(client.train(ds, {}, &model), ServiceStatus::kRateLimited);
  EXPECT_EQ(client.total_retries(), 0u);
  EXPECT_DOUBLE_EQ(client.total_backoff_seconds(), 0.0);
  EXPECT_LT(service.now(), 1.0);
}

TEST(RetryingClientTest, RetryAfterHintLongerThanBackoffCapIsHonored) {
  ServiceQuota quota;
  quota.requests_per_window = 1;
  quota.window_seconds = 500.0;
  quota.base_latency_seconds = 0.0;
  quota.per_sample_latency_seconds = 0.0;
  auto service = make_service(quota);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.max_backoff_seconds = 2.0;  // far below the window drain
  RetryingClient client(service, policy);
  std::string ds, model;
  ASSERT_EQ(client.upload(small_data(1), &ds), ServiceStatus::kOk);
  // Exponential backoff alone (1s + 2s) could never outlast the 500 s
  // window; the Retry-After hint must override the cap.
  EXPECT_EQ(client.train(ds, {}, &model), ServiceStatus::kOk);
  EXPECT_GT(client.total_backoff_seconds(), 400.0);
  EXPECT_LE(client.total_retries(), 2u);
}

TEST(RetryingClientTest, JitterIsBoundedAndSeeded) {
  ServiceQuota quota;
  quota.fault_rate = 1.0;
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_seconds = 1.0;
  policy.max_backoff_seconds = 8.0;
  policy.jitter = true;
  policy.jitter_seed = 77;

  auto run_once = [&] {
    auto service = make_service(quota, "Local", 5);
    RetryingClient client(service, policy);
    std::string ds;
    EXPECT_EQ(client.upload(small_data(1), &ds), ServiceStatus::kTransientError);
    return client.total_backoff_seconds();
  };
  const double a = run_once();
  const double b = run_once();
  // Decorrelated jitter: each of the 4 sleeps lies in [initial, min(cap,
  // 3 x previous sleep)], so the total is bounded by 4 and 3 + 3*8.
  EXPECT_GE(a, 4.0);
  EXPECT_LE(a, 27.0);
  EXPECT_DOUBLE_EQ(a, b) << "same jitter seed must reproduce the same sleeps";

  RetryPolicy reseeded = policy;
  reseeded.jitter_seed = 78;
  auto service = make_service(quota, "Local", 5);
  RetryingClient client(service, reseeded);
  std::string ds;
  EXPECT_EQ(client.upload(small_data(1), &ds), ServiceStatus::kTransientError);
  EXPECT_NE(client.total_backoff_seconds(), a);
}

TEST(ServiceStatusTest, UnavailableIsRetryable) {
  EXPECT_EQ(to_string(ServiceStatus::kUnavailable), "unavailable");
  EXPECT_TRUE(is_retryable(ServiceStatus::kUnavailable));
}

TEST(FaultWindowTest, RecurringWindowMath) {
  const FaultWindow w{/*period=*/100.0, /*phase=*/10.0, /*duration=*/5.0};
  EXPECT_FALSE(w.active_at(9.0));
  EXPECT_TRUE(w.active_at(10.0));
  EXPECT_TRUE(w.active_at(14.9));
  EXPECT_FALSE(w.active_at(15.0));
  EXPECT_TRUE(w.active_at(112.0));
  EXPECT_NEAR(w.seconds_until_inactive(12.0), 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(w.seconds_until_inactive(50.0), 0.0);
  // Three full occurrences inside [0, 230): [10,15), [110,115), [210,215).
  EXPECT_NEAR(w.seconds_active(0.0, 230.0), 15.0, 1e-9);
  // Partial overlap with the first window only.
  EXPECT_NEAR(w.seconds_active(12.0, 14.0), 2.0, 1e-9);
}

TEST(FaultPlanTest, ProfilesAreSeededAndDeterministic) {
  EXPECT_TRUE(make_fault_plan("none", "Google", 42).empty());
  const FaultPlan storm1 = make_fault_plan("storm", "Google", 42);
  const FaultPlan storm2 = make_fault_plan("storm", "Google", 42);
  EXPECT_FALSE(storm1.outages.empty());
  EXPECT_FALSE(storm1.bursts.empty());
  EXPECT_FALSE(storm1.latency_spikes.empty());
  ASSERT_EQ(storm1.outages.size(), storm2.outages.size());
  for (std::size_t i = 0; i < storm1.outages.size(); ++i) {
    EXPECT_DOUBLE_EQ(storm1.outages[i].phase, storm2.outages[i].phase);
    EXPECT_DOUBLE_EQ(storm1.outages[i].period, storm2.outages[i].period);
  }
  // Different platforms draw different schedules from the same seed.
  const FaultPlan other = make_fault_plan("storm", "Amazon", 42);
  EXPECT_NE(storm1.outages[0].phase, other.outages[0].phase);
  EXPECT_EQ(chaos_profile_names().size(), 5u);
  try {
    make_fault_plan("tempest", "Google", 42);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("tempest"), std::string::npos) << e.what();
  }
}

TEST(FaultPlanTest, OutageWindowMakesRequestsUnavailable) {
  ServiceQuota quota;
  quota.base_latency_seconds = 1.0;
  quota.per_sample_latency_seconds = 0.0;
  quota.fault_plan.outages.push_back({/*period=*/1000.0, /*phase=*/0.0,
                                      /*duration=*/100.0});
  auto service = make_service(quota);
  std::string ds;
  EXPECT_EQ(service.upload(small_data(1), &ds), ServiceStatus::kUnavailable);
  EXPECT_EQ(service.stats().unavailable, 1u);
  service.advance_clock(150.0);  // past the outage window
  EXPECT_EQ(service.upload(small_data(2), &ds), ServiceStatus::kOk);
  EXPECT_DOUBLE_EQ(quota.fault_plan.outage_seconds(0.0, 1000.0), 100.0);
}

TEST(FaultPlanTest, BurstAndLatencyWindowsShapeTraffic) {
  FaultPlan plan;
  plan.bursts.push_back({/*period=*/100.0, /*phase=*/0.0, /*duration=*/50.0});
  plan.burst_fault_rate = 0.9;
  plan.latency_spikes.push_back({/*period=*/100.0, /*phase=*/0.0, /*duration=*/50.0});
  plan.latency_multiplier = 4.0;
  EXPECT_DOUBLE_EQ(plan.effective_fault_rate(10.0, 0.05), 0.9);
  EXPECT_DOUBLE_EQ(plan.effective_fault_rate(60.0, 0.05), 0.05);
  EXPECT_DOUBLE_EQ(plan.latency_factor(10.0), 4.0);
  EXPECT_DOUBLE_EQ(plan.latency_factor(60.0), 1.0);
  // An empty plan is exactly the scalar model: no outage, base rate, x1.
  const FaultPlan empty;
  EXPECT_FALSE(empty.in_outage(0.0));
  EXPECT_DOUBLE_EQ(empty.effective_fault_rate(0.0, 0.05), 0.05);
  EXPECT_DOUBLE_EQ(empty.latency_factor(0.0), 1.0);
}

}  // namespace
}  // namespace mlaas
