// Simulated MLaaS web service.
//
// The paper's measurements ran against live cloud endpoints over ~5 months,
// dealing with upload/train/query round-trips, rate limits and transient
// failures (§8 notes that strict rate limits excluded some providers
// entirely).  MlaasService wraps a Platform behind exactly that kind of
// API: handle-based upload/train/predict calls, a token-bucket rate limit,
// a training-job quota, seeded transient faults, and a simulated wall clock
// advanced by per-request latency — so the operational behaviour of a
// measurement campaign can be studied deterministically, without a network.
//
// RetryingClient layers exponential backoff on top, the way the paper's
// scripts had to.  Since this PR it is also the transport of the real
// measurement campaign (eval/measurement.h's run_campaign), not a side
// demo: every (dataset, platform, config) cell goes through upload/train/
// predict with retries.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "platform/platform.h"
#include "util/rng.h"

namespace mlaas {

class TraceTrack;

/// One recurring window on the simulated clock: active whenever the time
/// since `phase` lands inside [0, duration) modulo `period`.  Chaos fault
/// schedules are built from these so outages repeat deterministically for
/// however long a session runs.
struct FaultWindow {
  double period = 0.0;    // seconds between window starts (> duration)
  double phase = 0.0;     // offset of the first window start
  double duration = 0.0;  // seconds each window stays active

  bool active_at(double t) const;
  /// Simulated seconds this window is active within [t0, t1).
  double seconds_active(double t0, double t1) const;
  /// Seconds from `t` until the current window ends (0 when inactive).
  double seconds_until_inactive(double t) const;
};

/// A seeded, deterministic fault schedule for one platform: correlated
/// outages (every request fails), fault bursts (elevated transient-error
/// probability) and latency spikes — the failure modes a ~5-month campaign
/// against live endpoints actually sees, as opposed to i.i.d. Bernoulli
/// noise.  An empty plan leaves service behaviour bit-identical to the
/// scalar fault_rate model.
struct FaultPlan {
  std::vector<FaultWindow> outages;
  std::vector<FaultWindow> bursts;
  std::vector<FaultWindow> latency_spikes;
  /// Transient-fault probability while inside a burst window.
  double burst_fault_rate = 0.0;
  /// Latency multiplier while inside a latency-spike window.
  double latency_multiplier = 1.0;

  bool empty() const {
    return outages.empty() && bursts.empty() && latency_spikes.empty();
  }
  bool in_outage(double t) const;
  /// max(base_rate, burst rate) when inside a burst window, else base_rate.
  double effective_fault_rate(double t, double base_rate) const;
  double latency_factor(double t) const;
  /// Total outage seconds overlapping the simulated interval [t0, t1).
  double outage_seconds(double t0, double t1) const;
};

/// Build the seeded fault schedule for `--chaos-profile` on one platform.
/// Profiles: "none" (empty plan), "outages", "bursts", "latency", "storm"
/// (all three).  Deterministic in (profile, platform, seed); throws
/// std::invalid_argument for unknown names.
FaultPlan make_fault_plan(const std::string& chaos_profile, const std::string& platform,
                          std::uint64_t seed);
std::vector<std::string> chaos_profile_names();

/// Operational envelope of a simulated service.
struct ServiceQuota {
  /// Token-bucket rate limit: this many requests per rolling window.
  std::size_t requests_per_window = 60;
  double window_seconds = 60.0;
  /// Total training jobs allowed (0 = unlimited) — free-tier style quota.
  std::size_t max_training_jobs = 0;
  /// Probability any request fails transiently (HTTP-503 style).
  double fault_rate = 0.0;
  /// Simulated latency model: fixed + per-sample cost.
  double base_latency_seconds = 0.2;
  double per_sample_latency_seconds = 1e-4;
  /// Correlated-failure schedule (default: empty, scalar faults only).
  FaultPlan fault_plan;
};

/// Named operational envelopes for the campaign's --quota-profile knob.
/// "default" mirrors plausible per-provider limits (big clouds fast but
/// strictly limited, startups slower); "strict" stresses the rate limiter;
/// "free-tier" adds a small per-session training quota; "unlimited" turns
/// the envelope off.  Throws std::invalid_argument for unknown names.
ServiceQuota quota_profile(const std::string& profile, const std::string& platform);
std::vector<std::string> quota_profile_names();

enum class ServiceStatus {
  kOk,
  kRateLimited,      // retry after the window drains
  kTransientError,   // retry immediately (with backoff)
  kQuotaExhausted,   // permanent for this service instance
  kNotFound,         // unknown dataset/model handle
  kBadRequest,       // config rejected by the platform
  kServerError,      // platform raised an unexpected error (HTTP-500 style)
  kUnavailable,      // correlated outage window: retryable, but no Retry-After
};

std::string to_string(ServiceStatus status);

/// Whether a status can succeed on retry (rate limit / transient fault).
bool is_retryable(ServiceStatus status);

/// Counters for one service instance; merge()able so the campaign can
/// aggregate per-platform telemetry across sessions.
///
/// Units: `requests`, `uploads`, `trainings`, `rate_limited`,
/// `transient_errors`, `server_errors` and `unavailable` count API calls
/// (one train job = one training, however many samples it touched).
/// `predictions` is the exception and counts ROWS scored, not predict
/// calls — the same per-sample unit the admission path charges latency in —
/// so a batched predict of 64 rows adds 64, exactly like 64 single-row
/// calls.  `datasets_deleted` / `models_deleted` count handles released via
/// delete_dataset / delete_model.
struct ServiceStats {
  std::size_t requests = 0;
  std::size_t uploads = 0;
  std::size_t trainings = 0;
  std::size_t predictions = 0;  // rows scored (per-row, not per-call)
  std::size_t datasets_deleted = 0;
  std::size_t models_deleted = 0;
  std::size_t rate_limited = 0;
  std::size_t transient_errors = 0;
  std::size_t server_errors = 0;
  std::size_t unavailable = 0;  // requests rejected by an outage window
  /// Real (not simulated) per-thread CPU time spent inside Platform::train.
  /// CPU time, not wall time, so the measured training cost does not depend
  /// on how oversubscribed the campaign's thread pool is.
  double train_cpu_seconds = 0.0;
  /// Real per-thread CPU time spent inside TrainedModel::predict, the
  /// prediction-side counterpart of train_cpu_seconds (same clock, same
  /// oversubscription argument).
  double predict_cpu_seconds = 0.0;

  /// Scalar counters in declaration order, for util/metrics.h's generic
  /// merge_stats (and the perfbench digest).
  template <typename Self, typename Visitor>
  static void visit_fields(Self& self, Visitor&& visit) {
    visit("requests", self.requests);
    visit("uploads", self.uploads);
    visit("trainings", self.trainings);
    visit("predictions", self.predictions);
    visit("datasets_deleted", self.datasets_deleted);
    visit("models_deleted", self.models_deleted);
    visit("rate_limited", self.rate_limited);
    visit("transient_errors", self.transient_errors);
    visit("server_errors", self.server_errors);
    visit("unavailable", self.unavailable);
    visit("train_cpu_seconds", self.train_cpu_seconds);
    visit("predict_cpu_seconds", self.predict_cpu_seconds);
  }

  void merge(const ServiceStats& other);
};

class MlaasService {
 public:
  /// `platform` must outlive the service.  The measurement campaign opens
  /// one session per (dataset, platform) cell over a shared platform roster;
  /// the serving router one service per roster platform.
  MlaasService(const Platform& platform, ServiceQuota quota, std::uint64_t seed);

  const std::string& platform_name() const { return platform_name_; }
  /// Simulated wall-clock (seconds since service creation).
  double now() const { return clock_seconds_; }
  /// Let a client "sleep": advances the simulated clock (used for backoff
  /// and for waiting out rate-limit windows).
  void advance_clock(double seconds);

  /// Upload a training set; on kOk fills `handle`.
  ServiceStatus upload(const Dataset& dataset, std::string* handle);
  /// Train a model on an uploaded dataset; on kOk fills `model_handle`.
  /// `seed` overrides the service's internal seed derivation so campaigns
  /// can reproduce the direct-call runner exactly; `train_cpu_seconds`
  /// (optional) receives the per-thread CPU time spent in Platform::train.
  ServiceStatus train(const std::string& dataset_handle, const PipelineConfig& config,
                      std::string* model_handle,
                      std::optional<std::uint64_t> seed = std::nullopt,
                      double* train_cpu_seconds = nullptr);
  /// Query a trained model; on kOk fills `labels`.  Admission charges
  /// latency per row and ServiceStats::predictions counts rows, so one
  /// batched call and N single-row calls account the same work.
  /// `predict_cpu_seconds` (optional) receives the per-thread CPU time
  /// spent in TrainedModel::predict.
  ServiceStatus predict(const std::string& model_handle, const Matrix& x,
                        std::vector<int>* labels,
                        double* predict_cpu_seconds = nullptr);

  /// Release an uploaded dataset / trained model.  Returns kNotFound for an
  /// unknown handle, kOk otherwise.  Deletes are local bookkeeping: they do
  /// not pass through request admission (no clock, rate-limit or fault-RNG
  /// effect), so adding them to an existing call sequence leaves every other
  /// response — and therefore cached campaign tables — byte-identical.
  ServiceStatus delete_dataset(const std::string& handle);
  ServiceStatus delete_model(const std::string& handle);

  /// The trained model behind a handle (nullptr when unknown).  Like the
  /// deletes this is local bookkeeping — no admission, clock or fault-RNG
  /// effect — so a gateway can retain a last-known-good model for graceful
  /// degradation without perturbing any other response.  The returned model
  /// outlives delete_model / service destruction (shared ownership).
  std::shared_ptr<const TrainedModel> model(const std::string& handle) const;

  /// Live handle counts (leak checks; a long campaign must hold these at
  /// O(1), not O(cells)).
  std::size_t dataset_count() const { return datasets_.size(); }
  std::size_t model_count() const { return models_.size(); }

  /// After a kRateLimited response: simulated seconds until the window has
  /// drained enough to admit another request (a Retry-After header).
  double retry_after_seconds() const { return retry_after_seconds_; }
  /// After a kServerError response: the platform's error message.
  const std::string& last_error() const { return last_error_; }

  const ServiceStats& stats() const { return stats_; }

  /// Attach a trace track: upload/train/predict each emit one "service"
  /// span per call, timestamped off the simulated clock.  The track must
  /// outlive the service while attached; nullptr detaches.
  void set_trace(TraceTrack* track) { trace_ = track; }

 private:
  /// Common request admission: clock, rate limit, fault injection.
  ServiceStatus admit(std::size_t work_samples);
  /// Emit the span for one completed call and pass the status through.
  ServiceStatus traced(const char* op, double start, std::size_t rows,
                       ServiceStatus status);

  const Platform* platform_;
  std::string platform_name_;
  ServiceQuota quota_;
  Rng rng_;
  double clock_seconds_ = 0.0;
  double retry_after_seconds_ = 0.0;
  std::string last_error_;
  std::vector<double> request_times_;  // within the current window
  ServiceStats stats_;
  TraceTrack* trace_ = nullptr;

  std::map<std::string, Dataset> datasets_;
  // shared_ptr (not TrainedModelPtr) so model() can hand out retained
  // references that survive delete_model; train() still moves unique models
  // in, so nothing else changes.
  std::map<std::string, std::shared_ptr<TrainedModel>> models_;
  std::size_t next_handle_ = 0;
};

/// Backoff/retry policy of a RetryingClient.  The exponential component is
/// capped at max_backoff_seconds; decorrelated jitter (sleep drawn uniformly
/// from [initial, min(cap, 3 * previous sleep)]) is off by default so seeded
/// campaigns stay deterministic unless explicitly opted in.
struct RetryPolicy {
  int max_attempts = 6;
  double initial_backoff_seconds = 1.0;
  double max_backoff_seconds = 120.0;
  bool jitter = false;
  std::uint64_t jitter_seed = 0;
};

/// Absent deadline for RetryingClient calls: retries are bounded only by the
/// attempt budget, exactly the pre-deadline behaviour.
inline constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

/// Exponential-backoff wrapper: retries rate-limited and transient failures
/// by advancing the service clock (sleeping, in simulation).  Rate-limited
/// requests honour the service's Retry-After hint, so windows always drain
/// within the retry budget instead of the budget expiring mid-window.
/// Outage rejections (kUnavailable) carry no hint and fall back to plain
/// backoff, so a long outage exhausts the budget the way a real one does.
/// No sleep is charged after the final attempt: once the budget is spent the
/// failure is returned immediately.
///
/// Deadline awareness: every call takes an optional absolute deadline on the
/// service clock.  A sleep (backoff or Retry-After stall) that would overrun
/// the deadline is refused — the call returns the last retryable status
/// immediately instead of sleeping past the budget, and the refusal is
/// counted by deadline_refusals().  With kNoDeadline the schedule is
/// bit-identical to the pre-deadline client.
class RetryingClient {
 public:
  RetryingClient(MlaasService& service, const RetryPolicy& policy);

  /// Step-wise calls with retries, used by the measurement campaign and the
  /// serving router (which passes per-request deadline budgets).
  ServiceStatus upload(const Dataset& dataset, std::string* handle,
                       double deadline = kNoDeadline);
  ServiceStatus train(const std::string& dataset_handle, const PipelineConfig& config,
                      std::string* model_handle,
                      std::optional<std::uint64_t> seed = std::nullopt,
                      double* train_cpu_seconds = nullptr,
                      double deadline = kNoDeadline);
  ServiceStatus predict(const std::string& model_handle, const Matrix& x,
                        std::vector<int>* labels,
                        double* predict_cpu_seconds = nullptr,
                        double deadline = kNoDeadline);

  std::size_t total_retries() const { return retries_; }
  /// Total simulated seconds spent sleeping (backoff + rate-limit stalls).
  double total_backoff_seconds() const { return backoff_seconds_; }
  /// Sleeps refused across the client's lifetime (deadline overruns avoided).
  std::size_t deadline_refusals() const { return deadline_refusals_; }

  /// Attach a trace track: every retry sleep becomes a "retry" span
  /// (backoff vs Retry-After) and every deadline refusal an instant event.
  void set_trace(TraceTrack* track) { trace_ = track; }

 private:
  ServiceStatus with_retries(const std::function<ServiceStatus()>& call,
                             double deadline);

  MlaasService& service_;
  RetryPolicy policy_;
  Rng jitter_rng_;
  TraceTrack* trace_ = nullptr;
  std::size_t retries_ = 0;
  double backoff_seconds_ = 0.0;
  std::size_t deadline_refusals_ = 0;
};

}  // namespace mlaas
