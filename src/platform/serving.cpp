#include "platform/serving.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "data/generators.h"
#include "platform/all_platforms.h"
#include "util/rng.h"

namespace mlaas {

// ---------------------------------------------------------------------------
// LatencyHistogram

const std::vector<double>& LatencyHistogram::bucket_bounds() {
  // Log-spaced, sqrt(2) ratio, 1 ms .. ~23000 s: 49 bounds + overflow slot.
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    double bound = 1e-3;
    for (int i = 0; i < 49; ++i) {
      b.push_back(bound);
      bound *= std::sqrt(2.0);
    }
    return b;
  }();
  return bounds;
}

LatencyHistogram::LatencyHistogram() : buckets_(bucket_bounds().size() + 1, 0) {}

void LatencyHistogram::record(double seconds) {
  seconds = std::max(0.0, seconds);
  const auto& bounds = bucket_bounds();
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), seconds);
  buckets_[static_cast<std::size_t>(it - bounds.begin())] += 1;
  ++count_;
  total_ += seconds;
  max_ = std::max(max_, seconds);
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const std::size_t target = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(count_))));
  const auto& bounds = bucket_bounds();
  std::size_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative >= target) {
      if (i >= bounds.size()) return max_;  // overflow bucket
      // Geometric midpoint of the bucket (bounds are sqrt(2)-spaced, so the
      // lower edge is bounds[i]/sqrt(2) — also valid for the first bucket).
      return bounds[i] / std::pow(2.0, 0.25);
    }
  }
  return max_;
}

std::string LatencyHistogram::encode() const {
  const auto& bounds = bucket_bounds();
  std::ostringstream out;
  out.precision(4);
  bool first = true;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    if (!first) out << ';';
    first = false;
    if (i < bounds.size()) {
      out << bounds[i] * 1000.0;
    } else {
      out << "inf";
    }
    out << '=' << buckets_[i];
  }
  return first ? "-" : out.str();
}

// ---------------------------------------------------------------------------
// Stats / report

std::string to_string(QueryOutcome outcome) {
  switch (outcome) {
    case QueryOutcome::kPending: return "pending";
    case QueryOutcome::kOk: return "ok";
    case QueryOutcome::kFailover: return "failover";
    case QueryOutcome::kLastKnownGood: return "last_known_good";
    case QueryOutcome::kDeadlineMissed: return "deadline_missed";
    case QueryOutcome::kDegraded: return "degraded";
    case QueryOutcome::kFailed: return "failed";
  }
  return "unknown";
}

double ServingStats::mean_batch_rows() const {
  return batches == 0 ? 0.0
                      : static_cast<double>(batched_rows) / static_cast<double>(batches);
}

double ServingStats::batch_occupancy(std::size_t max_batch_rows) const {
  return max_batch_rows == 0 ? 0.0
                             : mean_batch_rows() / static_cast<double>(max_batch_rows);
}

double ServingStats::throughput_rows_per_sec() const {
  return simulated_seconds <= 0.0 ? 0.0
                                  : static_cast<double>(batched_rows) / simulated_seconds;
}

double ServingStats::goodput() const {
  return requests == 0 ? 0.0 : static_cast<double>(ok) / static_cast<double>(requests);
}

Sidecar ServingReport::sidecar() const {
  Sidecar s;
  s.rows_name = "tenants";
  s.columns = {"tenant", "requests", "rows", "ok", "failed", "rejected",
               "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms"};
  const auto add_row = [&s](const TenantServingStats& t) {
    const LatencyHistogram& h = t.latency;
    s.rows.push_back({t.tenant, t.requests, t.rows, t.ok, t.failed, t.rejected,
                      h.mean_seconds() * 1000.0, h.quantile(0.50) * 1000.0,
                      h.quantile(0.95) * 1000.0, h.quantile(0.99) * 1000.0,
                      h.max_seconds() * 1000.0});
  };
  for (const auto& t : tenants) add_row(t);
  add_row({"TOTAL", totals.requests, totals.rows, totals.ok, totals.failed, totals.rejected,
           totals.latency});
  s.trailers.push_back({"serving",
                        {{"batches", totals.batches},
                         {"mean_batch_rows", totals.mean_batch_rows()},
                         {"occupancy", totals.batch_occupancy(max_batch_rows)},
                         {"throughput_rows_per_sec", totals.throughput_rows_per_sec()},
                         {"simulated_sec", totals.simulated_seconds},
                         {"flushed_full", totals.flushed_full},
                         {"flushed_linger", totals.flushed_linger},
                         {"flushed_forced", totals.flushed_forced},
                         {"cache_hits", totals.cache_hits},
                         {"cache_misses", totals.cache_misses},
                         {"cache_evictions", totals.cache_evictions},
                         {"trainings", totals.trainings},
                         {"retries", totals.retries},
                         {"rate_limited", totals.rate_limited},
                         {"backoff_sec", totals.backoff_seconds}}});
  // SLO telemetry only exists once a resilience knob was turned, and the
  // trace summary once tracing ran: both gates keep the reports of runs
  // without them byte-identical to the earlier format.
  if (resilience) {
    s.trailers.push_back({"resilience",
                          {{"goodput", totals.goodput()},
                           {"deadline_missed", totals.deadline_missed},
                           {"failovers", totals.failovers},
                           {"degraded_answers", totals.degraded_answers},
                           {"degraded_rejected", totals.degraded_rejected},
                           {"breaker_gated", totals.breaker_gated},
                           {"breaker_trips", totals.breaker_trips},
                           {"refused_sleeps", totals.refused_sleeps},
                           {"flushed_deadline", totals.flushed_deadline}}});
  }
  s.trailers.push_back({"histogram", {{"", totals.latency.encode()}}});
  if (!trace_summary.empty()) s.trailers.push_back({"trace", {{"", trace_summary}}});
  return s;
}

void ServingReport::write_tsv(std::ostream& out) const { sidecar().write_tsv(out); }

void ServingReport::save_tsv(const std::string& path) const {
  sidecar().save_tsv(path, "ServingReport");
}

void ServingReport::save_json(const std::string& path) const {
  sidecar().save_json(path, "ServingReport");
}

void validate_serving_options(const ServingOptions& o) {
  // `!(x >= 0)` instead of `x < 0` so NaN fails validation too.
  if (o.max_batch_rows < 1) {
    throw std::invalid_argument("serving: --batch must be >= 1");
  }
  if (!(o.linger_seconds >= 0.0) || !std::isfinite(o.linger_seconds)) {
    throw std::invalid_argument("serving: --linger must be a finite value >= 0");
  }
  if (o.model_cache_capacity < 1) {
    throw std::invalid_argument("serving: --cache-capacity must be >= 1");
  }
  if (!(o.deadline_seconds >= 0.0) || !std::isfinite(o.deadline_seconds)) {
    throw std::invalid_argument("serving: --deadline-ms must be a finite value >= 0");
  }
  if (!(o.fault_rate >= 0.0 && o.fault_rate <= 1.0)) {
    throw std::invalid_argument("serving: --fault-rate must be in [0,1]");
  }
  if (o.retry.max_attempts < 1) {
    throw std::invalid_argument("serving: retry attempts must be >= 1");
  }
  if (o.breaker.enabled) {
    if (o.breaker.failure_threshold < 1) {
      throw std::invalid_argument("serving: --breaker-threshold must be >= 1");
    }
    if (!(o.breaker.cooldown_seconds >= 0.0) || !std::isfinite(o.breaker.cooldown_seconds)) {
      throw std::invalid_argument("serving: --breaker-cooldown must be a finite value >= 0");
    }
    if (o.breaker.max_probes < 0) {
      throw std::invalid_argument("serving: --breaker-probes must be >= 0");
    }
  }
}

// ---------------------------------------------------------------------------
// QueryRouter

QueryRouter::QueryRouter(const std::vector<PlatformPtr>& platforms,
                         const std::string& quota_profile, std::uint64_t seed,
                         ServingOptions options)
    : options_(options) {
  if (platforms.empty()) throw std::invalid_argument("QueryRouter: empty roster");
  validate_serving_options(options_);
  platforms_.reserve(platforms.size());
  for (const auto& p : platforms) {
    PlatformState ps;
    ps.platform = p.get();
    ServiceQuota quota = ::mlaas::quota_profile(quota_profile, p->name());
    // Chaos threading: extra scalar faults stack on the profile's own rate,
    // and the correlated-failure schedule is seeded per platform so reruns
    // of the same router seed see the same storms.  With the defaults (rate
    // 0, profile "none") the quota is bit-identical to the profile's.
    quota.fault_rate = std::max(quota.fault_rate, options_.fault_rate);
    quota.fault_plan = make_fault_plan(options_.chaos_profile, p->name(),
                                       derive_seed(seed, "serving-chaos-" + p->name()));
    ps.service = std::make_unique<MlaasService>(
        *p, quota, derive_seed(seed, "serving-" + p->name()));
    RetryPolicy policy = options_.retry;
    policy.jitter_seed = derive_seed(seed, "serving-retry-" + p->name());
    ps.client = std::make_unique<RetryingClient>(*ps.service, policy);
    ps.breaker = CircuitBreaker(options_.breaker);
    platform_index_.emplace(p->name(), platforms_.size());
    platforms_.push_back(std::move(ps));
  }
  if (!options_.fallback_platform.empty()) {
    const auto it = platform_index_.find(options_.fallback_platform);
    if (it == platform_index_.end()) {
      throw std::invalid_argument("QueryRouter: fallback platform '" +
                                  options_.fallback_platform + "' not in roster");
    }
    fallback_index_ = it->second;
  }
  resilience_ = options_.fault_rate > 0.0 || options_.chaos_profile != "none" ||
                options_.deadline_seconds > 0.0 || fallback_index_.has_value() ||
                options_.serve_last_known_good || options_.breaker.enabled;
  if (options_.trace) {
    // Canonical track order: router first, then one per platform in roster
    // order.  Everything below runs on the single gateway clock, so the
    // resulting trace bytes are a pure function of (roster, seed, options).
    trace_ = std::make_unique<Trace>();
    router_track_ = &trace_->track("router");
    for (std::size_t i = 0; i < platforms_.size(); ++i) {
      PlatformState& ps = platforms_[i];
      const std::string name = ps.platform->name();
      TraceTrack* track = &trace_->track("service:" + name);
      ps.service->set_trace(track);
      ps.client->set_trace(track);
      ps.breaker.set_listener([track, name](const char* transition, double at) {
        track->instant("breaker", transition, at, {{"platform", name}});
      });
    }
  }
}

template <typename Fn>
ServiceStatus QueryRouter::timed_call(PlatformState& ps, Fn&& call) {
  // One gateway timeline: bring the platform's simulated clock up to the
  // router's, run the (possibly retried) call, then fold the service's
  // elapsed time back into the router clock.
  if (now_ > ps.service->now()) ps.service->advance_clock(now_ - ps.service->now());
  const ServiceStatus status = call();
  now_ = std::max(now_, ps.service->now());
  return status;
}

TenantServingStats& QueryRouter::tenant_stats(const std::string& tenant) {
  const auto [it, inserted] = tenant_index_.emplace(tenant, tenants_.size());
  if (inserted) {
    tenants_.emplace_back();
    tenants_.back().tenant = tenant;
  }
  return tenants_[it->second];
}

std::optional<QueryRouter::SessionId> QueryRouter::open_session(
    const std::string& tenant, const std::string& platform, const Dataset& train,
    const PipelineConfig& config, std::uint64_t train_seed) {
  const auto pit = platform_index_.find(platform);
  if (pit == platform_index_.end()) {
    throw std::invalid_argument("QueryRouter: unknown platform '" + platform + "'");
  }
  Session session;
  session.tenant = tenant;
  session.platform = pit->second;
  session.model_key = platform + "|" + train.meta().id + "|" + config.key() + "|" +
                      std::to_string(train_seed);
  if (fallback_index_) {
    // Same (dataset, config, seed) on the fallback platform: a distinct
    // cache key, trained deterministically on first failover.
    session.fallback_key = options_.fallback_platform + "|" + train.meta().id + "|" +
                           config.key() + "|" + std::to_string(train_seed);
  }
  session.train = train;
  session.config = config;
  session.train_seed = train_seed;
  session.open = true;
  tenant_stats(tenant);  // reserve the tenant's report row in open order
  sessions_.push_back(std::move(session));
  const SessionId id = sessions_.size() - 1;
  const Session& s = sessions_[id];
  if (acquire_model(id, s.platform, s.model_key, kNoDeadline).empty()) {
    sessions_[id].open = false;
    return std::nullopt;
  }
  return id;
}

void QueryRouter::close_session(SessionId session) {
  // The cached model stays resident (another session may share the key);
  // LRU pressure or router destruction reclaims it.
  sessions_.at(session).open = false;
}

std::string QueryRouter::acquire_model(std::size_t session, std::size_t platform,
                                       const std::string& model_key, double deadline) {
  Session& s = sessions_[session];
  if (const auto it = cache_index_.find(model_key); it != cache_index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // most recently used
    ++stats_.cache_hits;
    return it->second->handle;
  }
  ++stats_.cache_misses;
  PlatformState& ps = platforms_[platform];
  std::string dataset_handle;
  ServiceStatus status = timed_call(
      ps, [&] { return ps.client->upload(s.train, &dataset_handle, deadline); });
  if (status != ServiceStatus::kOk) {
    last_error_ = "upload:" + to_string(status);
    return {};
  }
  std::string model_handle;
  status = timed_call(ps, [&] {
    return ps.client->train(dataset_handle, s.config, &model_handle, s.train_seed,
                            nullptr, deadline);
  });
  // The uploaded copy is only needed for the train call; release it on every
  // path so cache churn cannot accumulate dataset copies in the service.
  ps.service->delete_dataset(dataset_handle);
  if (status != ServiceStatus::kOk) {
    last_error_ = "train:" + to_string(status);
    return {};
  }
  ++stats_.trainings;
  if (options_.serve_last_known_good) {
    // Retain a reference for the bottom serving rung.  The shared_ptr keeps
    // the model alive through cache eviction and delete_model, and looking
    // it up later has no admission/clock/RNG effect.
    last_known_good_[model_key] = ps.service->model(model_handle);
  }
  lru_.push_front({model_key, platform, model_handle});
  cache_index_[model_key] = lru_.begin();
  evict_to_capacity(options_.model_cache_capacity);
  return model_handle;
}

void QueryRouter::evict_to_capacity(std::size_t capacity) {
  while (lru_.size() > capacity) {
    const CachedModel& victim = lru_.back();
    platforms_[victim.platform].service->delete_model(victim.handle);
    cache_index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.cache_evictions;
  }
}

std::optional<QueryRouter::Ticket> QueryRouter::submit(SessionId session,
                                                       const Matrix& x,
                                                       double deadline_seconds) {
  Session& s = sessions_.at(session);
  if (!s.open) throw std::logic_error("QueryRouter::submit: session is closed");
  TenantServingStats& ts = tenant_stats(s.tenant);
  PlatformState& ps = platforms_[s.platform];
  if (options_.max_pending_rows > 0 &&
      ps.pending_rows + x.rows() > options_.max_pending_rows) {
    ++ts.rejected;
    ++stats_.rejected;
    return std::nullopt;
  }

  // Negative budget = the router default; 0 = explicitly unbounded.
  const double budget =
      deadline_seconds < 0.0 ? options_.deadline_seconds : deadline_seconds;
  const double abs_deadline = budget > 0.0 ? now_ + budget : kNoDeadline;
  if (abs_deadline != kNoDeadline) resilience_ = true;

  ++ts.requests;
  ts.rows += x.rows();
  ++stats_.requests;
  stats_.rows += x.rows();

  const Ticket ticket = results_.size();
  results_.emplace_back();
  results_.back().submit_seconds = now_;
  results_.back().deadline = abs_deadline;

  if (x.rows() == 0) {  // degenerate but legal: complete instantly
    QueryResult& r = results_.back();
    r.done = r.ok = true;
    r.outcome = QueryOutcome::kOk;
    r.complete_seconds = now_;
    ++ts.ok;
    ++stats_.ok;
    ts.latency.record(0.0);
    stats_.latency.record(0.0);
    return ticket;
  }

  auto it = batches_.find(s.model_key);
  // A request never splits across predict calls: flush first when appending
  // would overflow the batch (or when the feature width changed).
  if (it != batches_.end() &&
      (it->second.cols != x.cols() ||
       it->second.rows + x.rows() > options_.max_batch_rows)) {
    flush(s.model_key, FlushCause::kFull);
    it = batches_.end();
  }
  if (it == batches_.end()) {
    Batch batch;
    batch.model_key = s.model_key;
    batch.platform = s.platform;
    batch.session = session;
    batch.seq = batch_seq_++;
    batch.deadline = now_ + options_.linger_seconds;
    batch.cols = x.cols();
    it = batches_.emplace(s.model_key, std::move(batch)).first;
  }
  Batch& batch = it->second;
  batch.data.insert(batch.data.end(), x.data().begin(), x.data().end());
  batch.rows += x.rows();
  batch.requests.push_back({ticket, x.rows(), s.tenant, abs_deadline});
  batch.budget_deadline = std::min(batch.budget_deadline, abs_deadline);
  ps.pending_rows += x.rows();
  if (batch.rows >= options_.max_batch_rows) flush(s.model_key, FlushCause::kFull);
  return ticket;
}

void QueryRouter::flush(const std::string& model_key, FlushCause cause) {
  const auto it = batches_.find(model_key);
  if (it == batches_.end()) return;
  Batch batch = std::move(it->second);
  batches_.erase(it);
  platforms_[batch.platform].pending_rows -= batch.rows;

  ++stats_.batches;
  stats_.batched_rows += batch.rows;
  const char* cause_name = "";
  switch (cause) {
    case FlushCause::kFull: ++stats_.flushed_full; cause_name = "full"; break;
    case FlushCause::kLinger: ++stats_.flushed_linger; cause_name = "linger"; break;
    case FlushCause::kDeadline: ++stats_.flushed_deadline; cause_name = "deadline"; break;
    case FlushCause::kForced: ++stats_.flushed_forced; cause_name = "forced"; break;
  }
  const double flush_start = now_;

  const Session& s = sessions_[batch.session];
  const double budget = batch.budget_deadline;
  Matrix x(batch.rows, batch.cols);
  std::copy(batch.data.begin(), batch.data.end(), x.data().begin());

  // Degradation ladder.  Rung 1: the session's own platform — health-gated
  // by its breaker, retries and training bounded by the batch's tightest
  // member budget.
  std::vector<int> labels;
  bool have_labels = false;
  QueryOutcome how = QueryOutcome::kFailed;
  std::string error;
  {
    PlatformState& ps = platforms_[batch.platform];
    const auto decision = ps.breaker.admit(now_);
    if (decision == CircuitBreaker::Decision::kWait ||
        decision == CircuitBreaker::Decision::kDefer) {
      // Open breaker: waiting out the cooldown would burn the budget, so
      // skip the platform entirely and take the next rung.
      ++stats_.breaker_gated;
      error = "breaker:open";
      if (router_track_ != nullptr) {
        router_track_->instant("ladder", "rung:breaker-gated", now_,
                               {{"model", s.model_key}});
      }
    } else if (now_ > budget) {
      error = "deadline:exhausted";  // forced/overflow flush past the budget
      if (router_track_ != nullptr) {
        router_track_->instant("ladder", "rung:budget-exhausted", now_,
                               {{"model", s.model_key}});
      }
    } else {
      const std::string handle =
          acquire_model(batch.session, batch.platform, s.model_key, budget);
      if (handle.empty()) {
        error = last_error_;
        ps.breaker.record_failure(now_);
      } else {
        const ServiceStatus status = timed_call(
            ps, [&] { return ps.client->predict(handle, x, &labels, nullptr, budget); });
        if (status == ServiceStatus::kOk) {
          have_labels = true;
          how = QueryOutcome::kOk;
          ps.breaker.record_success(now_);
        } else {
          error = "predict:" + to_string(status);
          ps.breaker.record_failure(now_);
        }
      }
      if (!have_labels && router_track_ != nullptr) {
        router_track_->instant("ladder", "rung:primary-failed", now_,
                               {{"model", s.model_key}, {"error", error}});
      }
    }
  }

  // Rung 2: failover — re-train (deterministically, from the session seed)
  // and predict on the fallback platform, under its own breaker and chaos
  // plan, still within the budget.
  if (!have_labels && fallback_index_ && *fallback_index_ != batch.platform) {
    PlatformState& fb = platforms_[*fallback_index_];
    const auto decision = fb.breaker.admit(now_);
    if (decision == CircuitBreaker::Decision::kWait ||
        decision == CircuitBreaker::Decision::kDefer) {
      ++stats_.breaker_gated;
      if (router_track_ != nullptr) {
        router_track_->instant("ladder", "rung:failover-gated", now_,
                               {{"model", s.fallback_key}});
      }
    } else if (now_ <= budget) {
      const std::string handle =
          acquire_model(batch.session, *fallback_index_, s.fallback_key, budget);
      if (handle.empty()) {
        fb.breaker.record_failure(now_);
      } else {
        const ServiceStatus status = timed_call(
            fb, [&] { return fb.client->predict(handle, x, &labels, nullptr, budget); });
        if (status == ServiceStatus::kOk) {
          have_labels = true;
          how = QueryOutcome::kFailover;
          fb.breaker.record_success(now_);
        } else {
          fb.breaker.record_failure(now_);
        }
      }
      if (router_track_ != nullptr) {
        router_track_->instant("ladder",
                               have_labels ? "rung:failover" : "rung:failover-failed",
                               now_, {{"model", s.fallback_key}});
      }
    }
  }

  // Rung 3: last-known-good — serve from the retained model, locally.  No
  // admission, clock or RNG effect, so it cannot fail and costs no budget;
  // the answer is just not billed against the platform.
  if (!have_labels && options_.serve_last_known_good) {
    auto lkg = last_known_good_.find(s.model_key);
    if (lkg == last_known_good_.end() && !s.fallback_key.empty()) {
      lkg = last_known_good_.find(s.fallback_key);
    }
    if (lkg != last_known_good_.end()) {
      labels = lkg->second->predict(x);
      have_labels = true;
      how = QueryOutcome::kLastKnownGood;
      if (router_track_ != nullptr) {
        router_track_->instant("ladder", "rung:last-known-good", now_,
                               {{"model", lkg->first}});
      }
    }
  }

  // Rung 4: degraded reject — but only when a ladder was configured at all;
  // otherwise this is the classic failure path with its original error text.
  const bool ladder = fallback_index_.has_value() || options_.serve_last_known_good;
  if (!have_labels) {
    how = ladder ? QueryOutcome::kDegraded : QueryOutcome::kFailed;
    if (ladder && router_track_ != nullptr) {
      router_track_->instant("ladder", "rung:degraded", now_,
                             {{"model", s.model_key}, {"error", error}});
    }
  }

  std::size_t offset = 0;
  for (const PendingRequest& req : batch.requests) {
    QueryResult& r = results_[req.ticket];
    r.done = true;
    r.complete_seconds = now_;
    TenantServingStats& ts = tenant_stats(req.tenant);
    if (have_labels) {
      r.ok = true;
      r.labels.assign(labels.begin() + static_cast<std::ptrdiff_t>(offset),
                      labels.begin() + static_cast<std::ptrdiff_t>(offset + req.rows));
    } else {
      r.ok = false;
      r.error = how == QueryOutcome::kDegraded ? "degraded:" + error : error;
    }
    // A request that resolved after its own deadline is a deadline miss no
    // matter which rung answered it; in-budget resolutions keep the rung's
    // outcome and feed the goodput partition.
    const bool late = now_ > req.deadline;
    r.outcome = late ? QueryOutcome::kDeadlineMissed : how;
    if (late) {
      ++stats_.deadline_missed;
    } else if (have_labels) {
      ++ts.ok;
      ++stats_.ok;
      if (how == QueryOutcome::kFailover) ++stats_.failovers;
      if (how == QueryOutcome::kLastKnownGood) ++stats_.degraded_answers;
    } else if (how == QueryOutcome::kDegraded) {
      ++stats_.degraded_rejected;
    } else {
      ++ts.failed;
      ++stats_.failed;
    }
    offset += req.rows;
    const double latency = r.complete_seconds - r.submit_seconds;
    ts.latency.record(latency);
    stats_.latency.record(latency);
  }

  if (router_track_ != nullptr) {
    router_track_->span("serving", "flush", flush_start, now_ - flush_start,
                        {{"model", batch.model_key},
                         {"cause", cause_name},
                         {"rows", std::to_string(batch.rows)},
                         {"outcome", to_string(how)}});
  }
}

double QueryRouter::due_at(const Batch& batch) {
  // A batch falls due at its linger deadline — or earlier, when the
  // tightest member budget would otherwise be burned waiting for stragglers.
  return std::min(batch.deadline, batch.budget_deadline);
}

void QueryRouter::advance_to(double t) {
  // Flush every batch that falls due, earliest (due time, seq) first — the
  // deterministic replay of what a timer wheel would do.
  while (true) {
    const Batch* due = nullptr;
    double due_time = 0.0;
    for (const auto& [key, batch] : batches_) {
      const double at = due_at(batch);
      if (at > t) continue;
      if (due == nullptr || at < due_time || (at == due_time && batch.seq < due->seq)) {
        due = &batch;
        due_time = at;
      }
    }
    if (due == nullptr) break;
    now_ = std::max(now_, due_time);
    // Budget strictly before linger = this flush exists to save a deadline.
    flush(due->model_key, due->budget_deadline < due->deadline ? FlushCause::kDeadline
                                                               : FlushCause::kLinger);
  }
  now_ = std::max(now_, t);
}

const QueryResult& QueryRouter::wait(Ticket ticket) {
  const QueryResult& r = results_.at(ticket);
  if (r.done) return r;
  // Find the batch holding the ticket and let the clock run to its due
  // time; nothing else happens while a closed-loop caller blocks, so that
  // is exactly when the batch flushes.
  for (const auto& [key, batch] : batches_) {
    for (const PendingRequest& req : batch.requests) {
      if (req.ticket == ticket) {
        advance_to(std::max(now_, due_at(batch)));
        return results_.at(ticket);
      }
    }
  }
  return r;  // unreachable for tickets issued by submit()
}

void QueryRouter::drain() {
  while (!batches_.empty()) {
    const Batch* next = nullptr;
    double next_at = 0.0;
    for (const auto& [key, batch] : batches_) {
      const double at = due_at(batch);
      if (next == nullptr || at < next_at || (at == next_at && batch.seq < next->seq)) {
        next = &batch;
        next_at = at;
      }
    }
    now_ = std::max(now_, next_at);
    flush(next->model_key, FlushCause::kForced);
  }
}

ServingStats QueryRouter::stats() const {
  ServingStats s = stats_;
  s.simulated_seconds = now_;
  for (const auto& ps : platforms_) {
    s.retries += ps.client->total_retries();
    s.backoff_seconds += ps.client->total_backoff_seconds();
    s.rate_limited += ps.service->stats().rate_limited;
    s.refused_sleeps += ps.client->deadline_refusals();
    s.breaker_trips += ps.breaker.trips();
  }
  return s;
}

ServingReport QueryRouter::report() const {
  ServingReport report;
  report.totals = stats();
  report.tenants = tenants_;
  report.max_batch_rows = options_.max_batch_rows;
  report.resilience = resilience_;
  if (trace_ != nullptr) report.trace_summary = trace_->summary();
  return report;
}

const ServiceStats& QueryRouter::platform_stats(const std::string& platform) const {
  const auto it = platform_index_.find(platform);
  if (it == platform_index_.end()) {
    throw std::invalid_argument("QueryRouter: unknown platform '" + platform + "'");
  }
  return platforms_[it->second].service->stats();
}

// ---------------------------------------------------------------------------
// Workload generator

std::vector<ServingTenantSpec> make_serving_tenants(
    std::size_t n_tenants, const std::vector<std::string>& platforms,
    std::uint64_t seed) {
  if (platforms.empty()) {
    throw std::invalid_argument("make_serving_tenants: empty platform list");
  }
  std::vector<ServingTenantSpec> tenants;
  tenants.reserve(n_tenants);
  for (std::size_t i = 0; i < n_tenants; ++i) {
    ServingTenantSpec t;
    t.tenant = "tenant-" + std::to_string(i);
    t.platform = platforms[i % platforms.size()];
    // Zipf-skewed shares: tenant 0 dominates, the tail trickles — the shape
    // of real multi-tenant traffic.
    t.weight = 1.0 / static_cast<double>(i + 1);
    t.train = make_blobs(160, 6, 1.0, 4.0,
                         derive_seed(seed, "serving-data-" + std::to_string(i)));
    t.train.meta().id = "serving-" + std::to_string(i);
    t.train_seed = derive_seed(seed, "serving-train-" + std::to_string(i));
    tenants.push_back(std::move(t));
  }
  return tenants;
}

ServingWorkloadResult run_serving_workload(const std::vector<ServingTenantSpec>& tenants,
                                           const ServingWorkloadOptions& options) {
  if (tenants.empty()) {
    throw std::invalid_argument("run_serving_workload: no tenants");
  }
  // Roster: one platform instance per distinct platform name, router on top.
  std::vector<PlatformPtr> roster;
  std::map<std::string, bool> seen;
  for (const auto& t : tenants) {
    if (!seen[t.platform]) {
      roster.push_back(make_platform(t.platform));
      seen[t.platform] = true;
    }
  }
  QueryRouter router(roster, options.quota_profile, options.seed, options.serving);

  std::vector<std::optional<QueryRouter::SessionId>> session(tenants.size());
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    session[i] = router.open_session(tenants[i].tenant, tenants[i].platform,
                                     tenants[i].train, tenants[i].config,
                                     tenants[i].train_seed);
  }

  Rng rng(derive_seed(options.seed, "serving-workload"));
  double total_weight = 0.0;
  for (const auto& t : tenants) total_weight += t.weight;
  const auto pick_tenant = [&]() -> std::size_t {
    double u = rng.uniform() * total_weight;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      u -= tenants[i].weight;
      if (u <= 0.0) return i;
    }
    return tenants.size() - 1;
  };
  const auto make_query = [&](const ServingTenantSpec& t) {
    const Matrix& source = t.train.x();
    const std::size_t rows = 1 + rng.index(std::max<std::size_t>(1, t.max_rows_per_request));
    const std::size_t start = rng.index(source.rows());
    Matrix q(rows, source.cols());
    for (std::size_t r = 0; r < rows; ++r) {
      const auto src = source.row((start + r) % source.rows());
      std::copy(src.begin(), src.end(), q.row(r).begin());
    }
    return q;
  };

  const auto wall_start = std::chrono::steady_clock::now();
  if (!options.closed_loop) {
    // Open loop: seeded Poisson arrivals at `arrival_rate`, tenant drawn by
    // weight per arrival; the router clock runs between arrivals so linger
    // deadlines fire the way they would under a live timer.
    const double rate = std::max(1e-9, options.arrival_rate);
    double t = 0.0;
    for (std::size_t k = 0; k < options.requests; ++k) {
      t += -std::log(1.0 - rng.uniform()) / rate;
      router.advance_to(t);
      const std::size_t i = pick_tenant();
      if (session[i]) router.submit(*session[i], make_query(tenants[i]));
    }
    router.drain();
  } else {
    // Closed loop: `clients` callers, each bound to a weighted tenant draw,
    // all submit then all wait — requests from concurrent clients share
    // micro-batches, which is the whole point of the batcher.
    const std::size_t clients = std::max<std::size_t>(1, options.clients);
    std::vector<std::size_t> client_tenant(clients);
    for (auto& ct : client_tenant) ct = pick_tenant();
    std::vector<std::optional<QueryRouter::Ticket>> inflight(clients);
    std::size_t issued = 0;
    while (issued < options.requests) {
      for (std::size_t c = 0; c < clients && issued < options.requests; ++c, ++issued) {
        const std::size_t i = client_tenant[c];
        inflight[c] = session[i] ? router.submit(*session[i], make_query(tenants[i]))
                                 : std::nullopt;
      }
      for (std::size_t c = 0; c < clients; ++c) {
        if (inflight[c]) router.wait(*inflight[c]);
        inflight[c] = std::nullopt;
      }
    }
    router.drain();
  }
  const auto wall_end = std::chrono::steady_clock::now();

  ServingWorkloadResult result;
  result.report = router.report();
  result.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  if (router.trace() != nullptr) {
    result.trace = std::make_shared<Trace>(*router.trace());
  }
  return result;
}

}  // namespace mlaas
