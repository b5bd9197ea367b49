#include "platform/service.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/clock.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace mlaas {

std::string to_string(ServiceStatus status) {
  switch (status) {
    case ServiceStatus::kOk: return "ok";
    case ServiceStatus::kRateLimited: return "rate-limited";
    case ServiceStatus::kTransientError: return "transient-error";
    case ServiceStatus::kQuotaExhausted: return "quota-exhausted";
    case ServiceStatus::kNotFound: return "not-found";
    case ServiceStatus::kBadRequest: return "bad-request";
    case ServiceStatus::kServerError: return "server-error";
    case ServiceStatus::kUnavailable: return "unavailable";
  }
  return "?";
}

bool is_retryable(ServiceStatus status) {
  return status == ServiceStatus::kRateLimited ||
         status == ServiceStatus::kTransientError ||
         status == ServiceStatus::kUnavailable;
}

bool FaultWindow::active_at(double t) const {
  if (period <= 0.0 || duration <= 0.0) return false;
  double pos = std::fmod(t - phase, period);
  if (pos < 0.0) pos += period;
  return pos < duration;
}

double FaultWindow::seconds_active(double t0, double t1) const {
  if (period <= 0.0 || duration <= 0.0 || t1 <= t0) return 0.0;
  // Occurrence k covers [phase + k*period, phase + k*period + duration).
  const auto k_first =
      static_cast<long long>(std::floor((t0 - phase - duration) / period));
  const auto k_last = static_cast<long long>(std::floor((t1 - phase) / period));
  double total = 0.0;
  for (long long k = k_first; k <= k_last; ++k) {
    const double start = phase + static_cast<double>(k) * period;
    const double overlap = std::min(t1, start + duration) - std::max(t0, start);
    if (overlap > 0.0) total += overlap;
  }
  return total;
}

double FaultWindow::seconds_until_inactive(double t) const {
  if (!active_at(t)) return 0.0;
  double pos = std::fmod(t - phase, period);
  if (pos < 0.0) pos += period;
  return duration - pos;
}

bool FaultPlan::in_outage(double t) const {
  for (const auto& w : outages) {
    if (w.active_at(t)) return true;
  }
  return false;
}

double FaultPlan::effective_fault_rate(double t, double base_rate) const {
  for (const auto& w : bursts) {
    if (w.active_at(t)) return std::max(base_rate, burst_fault_rate);
  }
  return base_rate;
}

double FaultPlan::latency_factor(double t) const {
  for (const auto& w : latency_spikes) {
    if (w.active_at(t)) return latency_multiplier;
  }
  return 1.0;
}

double FaultPlan::outage_seconds(double t0, double t1) const {
  // Windows of one plan are drawn with distinct periods/phases; treating a
  // rare overlap as double-counted keeps this O(outage windows).
  double total = 0.0;
  for (const auto& w : outages) total += w.seconds_active(t0, t1);
  return total;
}

namespace {

FaultWindow draw_window(Rng& rng, double period_lo, double period_hi,
                        double duration_lo, double duration_hi) {
  FaultWindow w;
  w.period = rng.uniform(period_lo, period_hi);
  w.duration = rng.uniform(duration_lo, duration_hi);
  w.phase = rng.uniform(0.0, w.period);
  return w;
}

}  // namespace

FaultPlan make_fault_plan(const std::string& chaos_profile, const std::string& platform,
                          std::uint64_t seed) {
  FaultPlan plan;
  if (chaos_profile == "none") return plan;
  const bool outages = chaos_profile == "outages" || chaos_profile == "storm";
  const bool bursts = chaos_profile == "bursts" || chaos_profile == "storm";
  const bool latency = chaos_profile == "latency" || chaos_profile == "storm";
  if (!outages && !bursts && !latency) {
    throw std::invalid_argument("make_fault_plan: unknown chaos profile '" +
                                chaos_profile + "'");
  }
  Rng rng(derive_seed(seed, "chaos-" + chaos_profile + "-" + platform));
  if (outages) {
    // A couple of recurring outages per platform: minutes-long windows every
    // half hour to hour and a half, the shape of real provider incidents.
    plan.outages.push_back(draw_window(rng, 1800.0, 5400.0, 120.0, 600.0));
    plan.outages.push_back(draw_window(rng, 7200.0, 21600.0, 300.0, 1200.0));
  }
  if (bursts) {
    plan.bursts.push_back(draw_window(rng, 600.0, 1800.0, 60.0, 300.0));
    plan.burst_fault_rate = rng.uniform(0.4, 0.8);
  }
  if (latency) {
    plan.latency_spikes.push_back(draw_window(rng, 900.0, 2700.0, 120.0, 480.0));
    plan.latency_multiplier = rng.uniform(3.0, 10.0);
  }
  return plan;
}

std::vector<std::string> chaos_profile_names() {
  return {"none", "outages", "bursts", "latency", "storm"};
}

ServiceQuota quota_profile(const std::string& profile, const std::string& platform) {
  ServiceQuota q;
  if (profile == "unlimited") {
    q.requests_per_window = 1u << 30;
    q.base_latency_seconds = 0.0;
    q.per_sample_latency_seconds = 0.0;
    return q;
  }
  if (profile == "strict") {
    // Stress the rate limiter: a handful of requests per minute, the kind
    // of limit §8 says excluded providers from the paper's study.
    q.requests_per_window = 5;
    q.window_seconds = 60.0;
    q.base_latency_seconds = 1.0;
    q.per_sample_latency_seconds = 1e-3;
    return q;
  }
  if (profile == "default" || profile == "free-tier") {
    // Plausible per-provider envelopes: big clouds are fast but strictly
    // limited; startups are slower; Local is the in-house baseline.
    if (platform == "Google") {
      q = {100, 60.0, 0, 0.0, 0.5, 5e-4};
    } else if (platform == "ABM") {
      q = {20, 60.0, 0, 0.0, 2.0, 2e-3};
    } else if (platform == "Amazon") {
      q = {100, 60.0, 0, 0.0, 1.0, 5e-4};
    } else if (platform == "BigML") {
      q = {60, 60.0, 0, 0.0, 1.0, 1e-3};
    } else if (platform == "PredictionIO") {
      q = {60, 60.0, 0, 0.0, 1.5, 1e-3};
    } else if (platform == "Microsoft") {
      q = {120, 60.0, 0, 0.0, 2.0, 1e-3};
    } else {  // Local and anything unknown: effectively unconstrained
      q = {100000, 60.0, 0, 0.0, 0.0, 1e-5};
    }
    if (profile == "free-tier") q.max_training_jobs = 10;
    return q;
  }
  throw std::invalid_argument("quota_profile: unknown profile '" + profile + "'");
}

std::vector<std::string> quota_profile_names() {
  return {"default", "strict", "free-tier", "unlimited"};
}

void ServiceStats::merge(const ServiceStats& other) { merge_stats(*this, other); }

MlaasService::MlaasService(const Platform& platform, ServiceQuota quota, std::uint64_t seed)
    : platform_(&platform),
      platform_name_(platform.name()),
      quota_(quota),
      rng_(derive_seed(seed, "mlaas-service")) {}

void MlaasService::advance_clock(double seconds) {
  clock_seconds_ += std::max(0.0, seconds);
}

ServiceStatus MlaasService::admit(std::size_t work_samples) {
  ++stats_.requests;
  // Correlated outage: the gateway is down, so the request never reaches the
  // rate limiter.  Only the connection timeout accrues, and no Retry-After
  // hint is offered — real 503s do not say when the incident ends.
  if (quota_.fault_plan.in_outage(clock_seconds_)) {
    ++stats_.unavailable;
    advance_clock(quota_.base_latency_seconds);
    return ServiceStatus::kUnavailable;
  }
  // Drop window entries that have aged out.
  const double window_start = clock_seconds_ - quota_.window_seconds;
  request_times_.erase(
      std::remove_if(request_times_.begin(), request_times_.end(),
                     [&](double t) { return t < window_start; }),
      request_times_.end());
  if (request_times_.size() >= quota_.requests_per_window) {
    ++stats_.rate_limited;
    // Retry-After: when the oldest in-window request ages out.  Entries are
    // appended in clock order, so front() is the oldest.
    retry_after_seconds_ =
        std::max(0.0, request_times_.front() + quota_.window_seconds - clock_seconds_);
    return ServiceStatus::kRateLimited;
  }
  request_times_.push_back(clock_seconds_);
  // Latency accrues whether or not the request ultimately succeeds; a spike
  // window multiplies it.
  advance_clock((quota_.base_latency_seconds +
                 quota_.per_sample_latency_seconds * static_cast<double>(work_samples)) *
                quota_.fault_plan.latency_factor(clock_seconds_));
  const double fault_rate =
      quota_.fault_plan.effective_fault_rate(clock_seconds_, quota_.fault_rate);
  if (fault_rate > 0.0 && rng_.chance(fault_rate)) {
    ++stats_.transient_errors;
    return ServiceStatus::kTransientError;
  }
  return ServiceStatus::kOk;
}

ServiceStatus MlaasService::traced(const char* op, double start, std::size_t rows,
                                   ServiceStatus status) {
  if (trace_ != nullptr) {
    trace_->span("service", op, start, clock_seconds_ - start,
                 {{"platform", platform_name_},
                  {"status", to_string(status)},
                  {"rows", std::to_string(rows)}});
  }
  return status;
}

ServiceStatus MlaasService::upload(const Dataset& dataset, std::string* handle) {
  if (handle == nullptr) throw std::invalid_argument("upload: null handle out-param");
  const double start = clock_seconds_;
  const ServiceStatus admitted = admit(dataset.n_samples());
  if (admitted != ServiceStatus::kOk) {
    return traced("upload", start, dataset.n_samples(), admitted);
  }
  ++stats_.uploads;
  *handle = "ds-" + std::to_string(next_handle_++);
  datasets_.emplace(*handle, dataset);
  return traced("upload", start, dataset.n_samples(), ServiceStatus::kOk);
}

ServiceStatus MlaasService::train(const std::string& dataset_handle,
                                  const PipelineConfig& config, std::string* model_handle,
                                  std::optional<std::uint64_t> seed,
                                  double* train_cpu_seconds) {
  if (model_handle == nullptr) throw std::invalid_argument("train: null handle out-param");
  const double start = clock_seconds_;
  auto it = datasets_.find(dataset_handle);
  if (it == datasets_.end()) return traced("train", start, 0, ServiceStatus::kNotFound);
  const std::size_t rows = it->second.n_samples();
  if (quota_.max_training_jobs > 0 && stats_.trainings >= quota_.max_training_jobs) {
    return traced("train", start, rows, ServiceStatus::kQuotaExhausted);
  }
  const ServiceStatus admitted = admit(rows * 10);  // training is slow
  if (admitted != ServiceStatus::kOk) return traced("train", start, rows, admitted);
  const std::uint64_t train_seed =
      seed ? *seed : derive_seed(rng_.next(), "service-train");
  try {
    // Per-thread CPU time, not wall time: campaign workers share cores, and
    // the measured training cost must not depend on pool oversubscription.
    const double t0 = thread_cpu_seconds();
    auto model = platform_->train(it->second, config, train_seed);
    const double elapsed = thread_cpu_seconds() - t0;
    stats_.train_cpu_seconds += elapsed;
    if (train_cpu_seconds != nullptr) *train_cpu_seconds = elapsed;
    ++stats_.trainings;
    *model_handle = "model-" + std::to_string(next_handle_++);
    models_.emplace(*model_handle, std::move(model));
    return traced("train", start, rows, ServiceStatus::kOk);
  } catch (const std::invalid_argument&) {
    return traced("train", start, rows, ServiceStatus::kBadRequest);
  } catch (const std::exception& e) {
    // Anything else the platform throws is an internal error: report it as
    // HTTP-500 instead of letting it unwind through the campaign's thread
    // pool and kill the run.
    ++stats_.server_errors;
    last_error_ = e.what();
    return traced("train", start, rows, ServiceStatus::kServerError);
  }
}

ServiceStatus MlaasService::predict(const std::string& model_handle, const Matrix& x,
                                    std::vector<int>* labels, double* predict_cpu_seconds) {
  if (labels == nullptr) throw std::invalid_argument("predict: null labels out-param");
  const double start = clock_seconds_;
  auto it = models_.find(model_handle);
  if (it == models_.end()) return traced("predict", start, 0, ServiceStatus::kNotFound);
  const ServiceStatus admitted = admit(x.rows());
  if (admitted != ServiceStatus::kOk) return traced("predict", start, x.rows(), admitted);
  try {
    // Same real-CPU-time accounting as train: per-thread CPU seconds, so the
    // measured query cost is independent of thread-pool oversubscription.
    const double t0 = thread_cpu_seconds();
    *labels = it->second->predict(x);
    const double elapsed = thread_cpu_seconds() - t0;
    stats_.predict_cpu_seconds += elapsed;
    if (predict_cpu_seconds != nullptr) *predict_cpu_seconds = elapsed;
  } catch (const std::exception& e) {
    ++stats_.server_errors;
    last_error_ = e.what();
    return traced("predict", start, x.rows(), ServiceStatus::kServerError);
  }
  // Per-row accounting, matching admit()'s per-sample latency charge: one
  // 64-row call and 64 single-row calls record the same prediction work.
  stats_.predictions += x.rows();
  return traced("predict", start, x.rows(), ServiceStatus::kOk);
}

ServiceStatus MlaasService::delete_dataset(const std::string& handle) {
  if (datasets_.erase(handle) == 0) return ServiceStatus::kNotFound;
  ++stats_.datasets_deleted;
  return ServiceStatus::kOk;
}

ServiceStatus MlaasService::delete_model(const std::string& handle) {
  if (models_.erase(handle) == 0) return ServiceStatus::kNotFound;
  ++stats_.models_deleted;
  return ServiceStatus::kOk;
}

std::shared_ptr<const TrainedModel> MlaasService::model(const std::string& handle) const {
  const auto it = models_.find(handle);
  return it == models_.end() ? nullptr : it->second;
}

RetryingClient::RetryingClient(MlaasService& service, const RetryPolicy& policy)
    : service_(service),
      policy_(policy),
      jitter_rng_(derive_seed(policy.jitter_seed, "retry-jitter")) {
  policy_.max_attempts = std::max(1, policy_.max_attempts);
  policy_.max_backoff_seconds =
      std::max(policy_.initial_backoff_seconds, policy_.max_backoff_seconds);
}

ServiceStatus RetryingClient::with_retries(const std::function<ServiceStatus()>& call,
                                           double deadline) {
  double backoff = policy_.initial_backoff_seconds;
  double prev_sleep = policy_.initial_backoff_seconds;
  ServiceStatus status = ServiceStatus::kOk;
  for (int attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    status = call();
    if (!is_retryable(status)) return status;  // success or permanent failure
    if (attempt + 1 == policy_.max_attempts) break;  // budget spent: no idle sleep
    double wait;
    if (status == ServiceStatus::kRateLimited) {
      // Honour the Retry-After hint so a long window does not eat the whole
      // retry budget one backoff at a time.  The hint may exceed the capped
      // backoff; waiting it out is still cheaper than burning attempts.
      //
      // The +1e-6 epsilon is load-bearing: admit() ages window entries out
      // with a strict `t < window_start` comparison, and the hint is computed
      // as exactly `front() + window - now`.  Sleeping exactly that long
      // lands the retry at the instant the oldest entry expires, where
      // `t == window_start` still counts against the window — the retry
      // would be rejected again and an attempt burned.  Nudging the wake-up
      // strictly past expiry admits the retry on its first attempt (locked
      // by the RetryAfterHintAtExactExpiry* regression tests).
      wait = std::max(backoff, service_.retry_after_seconds() + 1e-6);
    } else if (policy_.jitter) {
      // Decorrelated jitter: uniform in [initial, min(cap, 3 * prev sleep)].
      const double hi = std::min(policy_.max_backoff_seconds, 3.0 * prev_sleep);
      wait = jitter_rng_.uniform(policy_.initial_backoff_seconds,
                                 std::max(policy_.initial_backoff_seconds, hi));
      prev_sleep = wait;
    } else {
      wait = backoff;
      backoff = std::min(backoff * 2.0, policy_.max_backoff_seconds);
    }
    if (service_.now() + wait > deadline) {
      // The sleep would overrun the caller's deadline budget: stop retrying
      // and report the last retryable status now, rather than resolving the
      // request after its deadline has already passed.
      ++deadline_refusals_;
      if (trace_ != nullptr) {
        trace_->instant("retry", "deadline-refused", service_.now(),
                        {{"status", to_string(status)},
                         {"wait", format_metric_value(wait)}});
      }
      break;
    }
    ++retries_;
    backoff_seconds_ += wait;
    if (trace_ != nullptr) {
      trace_->span("retry",
                   status == ServiceStatus::kRateLimited ? "retry-after-wait"
                                                         : "backoff-wait",
                   service_.now(), wait,
                   {{"attempt", std::to_string(attempt + 1)},
                    {"status", to_string(status)}});
    }
    service_.advance_clock(wait);
  }
  return status;
}

ServiceStatus RetryingClient::upload(const Dataset& dataset, std::string* handle,
                                     double deadline) {
  return with_retries([&] { return service_.upload(dataset, handle); }, deadline);
}

ServiceStatus RetryingClient::train(const std::string& dataset_handle,
                                    const PipelineConfig& config, std::string* model_handle,
                                    std::optional<std::uint64_t> seed,
                                    double* train_cpu_seconds, double deadline) {
  return with_retries(
      [&] { return service_.train(dataset_handle, config, model_handle, seed,
                                  train_cpu_seconds); },
      deadline);
}

ServiceStatus RetryingClient::predict(const std::string& model_handle, const Matrix& x,
                                      std::vector<int>* labels, double* predict_cpu_seconds,
                                      double deadline) {
  return with_retries(
      [&] { return service_.predict(model_handle, x, labels, predict_cpu_seconds); },
      deadline);
}

}  // namespace mlaas
