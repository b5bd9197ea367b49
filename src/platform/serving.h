// Batched multi-tenant query serving over the simulated MLaaS services.
//
// The paper's §6 inference experiments probe opaque platforms one query
// matrix at a time; the ROADMAP's north star is a system that serves heavy
// traffic from many concurrent users.  QueryRouter is the layer between the
// two: it multiplexes many client sessions over the existing MlaasService
// simulators, micro-batching predict requests per trained model (configurable
// max batch size and linger), keeping trained-model handles in an LRU cache
// with explicit delete_dataset/delete_model eviction, shedding load with a
// per-platform pending-row cap on top of the services' token-bucket quotas,
// and recording latency/throughput/batch-occupancy telemetry.
//
// Determinism: the router drives one global simulated clock; every service
// call, batch flush and retry is ordered by (deadline, creation sequence),
// and models are trained through MlaasService::train with an explicit seed.
// Labels that come back through the serving path are therefore byte-identical
// to direct Platform::train(seed)->predict(rows) for the same seed — for any
// batch size, linger, cache capacity or tenant interleaving — which is what
// lets the §6 experiments and the measurement campaign run through it.
//
// Fault tolerance (DESIGN.md "Degradation ladder"): every request may carry a
// deadline budget — batches flush early when the tightest budget falls due,
// retries refuse sleeps that would overrun it, and late resolutions count as
// deadline_missed instead of hanging.  Per-platform circuit breakers
// health-gate dispatch, and a failed (or gated, or budget-exhausted) batch
// walks a deterministic ladder: fallback platform → retained last-known-good
// model → degraded reject.  Every knob defaults off, in which case labels and
// reports are byte-identical to the pre-resilience router; with chaos on,
// reruns of the same seed are byte-identical to each other.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "platform/breaker.h"
#include "platform/service.h"
#include "util/io.h"
#include "util/trace.h"

namespace mlaas {

/// Fixed-bucket latency histogram (log-spaced, sqrt(2) ratio from 1 ms).
/// Quantiles are read from the cumulative counts and resolved to the
/// geometric midpoint of the matching bucket, so p50/p95/p99 are exact to
/// within one half-bucket (~19%) — plenty for telemetry, and O(1) memory no
/// matter how many requests a benchmark records.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void record(double seconds);

  std::size_t count() const { return count_; }
  double total_seconds() const { return total_; }
  double max_seconds() const { return max_; }
  double mean_seconds() const { return count_ == 0 ? 0.0 : total_ / double(count_); }
  /// q in [0, 1]; returns 0 when empty.
  double quantile(double q) const;

  /// Bucket upper bounds in seconds (shared by every histogram instance).
  static const std::vector<double>& bucket_bounds();
  const std::vector<std::size_t>& buckets() const { return buckets_; }
  /// Compact "le_ms=count;..." encoding of the non-empty buckets (the format
  /// documented in DESIGN.md "Query serving").
  std::string encode() const;

 private:
  std::vector<std::size_t> buckets_;  // bucket_bounds().size() + 1 (overflow)
  std::size_t count_ = 0;
  double total_ = 0.0;
  double max_ = 0.0;
};

/// Router behaviour knobs.
struct ServingOptions {
  /// Flush a model's pending batch once it holds this many rows.
  std::size_t max_batch_rows = 64;
  /// Flush a partial batch this many simulated seconds after its first row
  /// arrived (the micro-batching linger).
  double linger_seconds = 0.05;
  /// Router-wide LRU capacity over trained-model handles; the evicted
  /// model's handle is released with delete_model, and a later request for
  /// it re-trains deterministically from the session's seed.
  std::size_t model_cache_capacity = 8;
  /// Admission control: reject a submit when the target platform already has
  /// this many rows pending (0 = unbounded).  This is load shedding in front
  /// of the service's own token-bucket quota, which stays authoritative for
  /// rate limiting (the router honours its Retry-After hints).
  std::size_t max_pending_rows = 0;
  /// Retry policy for upload/train/predict calls issued by the router.
  RetryPolicy retry;

  // -- Fault tolerance.  Every knob below defaults off; while they stay off
  // the router's labels, stats and reports are byte-identical to the
  // pre-resilience code.

  /// Extra i.i.d. transient-fault probability injected into every platform
  /// service, combined with the quota profile's own rate via max().
  double fault_rate = 0.0;
  /// Correlated-failure schedule per platform: "none", "outages", "bursts",
  /// "latency" or "storm" (see make_fault_plan).  Seeded per platform from
  /// the router seed, so reruns see the same storms.
  std::string chaos_profile = "none";
  /// Default per-request deadline budget in simulated seconds (0 = none;
  /// submit() can override per request).  A batch flushes early when its
  /// tightest member budget falls due, retries refuse any sleep that would
  /// overrun it, and a request that still resolves late counts as
  /// deadline_missed — it never hangs.
  double deadline_seconds = 0.0;
  /// Degradation ladder rung 2: when the primary platform fails, is breaker
  /// -gated or runs out of budget, re-route the batch here (must be in the
  /// roster; empty = no failover).  The fallback model is trained from the
  /// same session train_seed, so failover labels are deterministic.
  std::string fallback_platform;
  /// Degradation ladder rung 3: retain the last successfully trained model
  /// per model key and serve labels from it locally — no service admission,
  /// no clock or fault-RNG effect — when both primary and fallback are
  /// unavailable.
  bool serve_last_known_good = false;
  /// Health gate: one circuit breaker per (platform, router).  While a
  /// breaker is open the router skips that platform and takes the next
  /// ladder rung instead of sleeping out the cooldown on a request budget.
  BreakerOptions breaker;

  /// Deterministic end-to-end tracing: one track for the router (batch
  /// flushes with FlushCause and ladder-rung annotations) plus one per
  /// platform (service call spans, retry waits, breaker transitions), all
  /// timestamped off the simulated gateway clock.  Off by default; while off
  /// every report/label byte is identical to the untraced router.
  bool trace = false;
};

/// Where on the serve path / degradation ladder a request was resolved.
enum class QueryOutcome {
  kPending,         // not resolved yet
  kOk,              // primary platform answered within budget
  kFailover,        // fallback platform answered within budget
  kLastKnownGood,   // served from the retained last-known-good model
  kDeadlineMissed,  // resolved after its deadline (labels may still be set)
  kDegraded,        // ladder exhausted within budget: degraded reject
  kFailed,          // permanent failure with no ladder rung configured
};

std::string to_string(QueryOutcome outcome);

/// Outcome of one submitted predict request.
struct QueryResult {
  bool done = false;   // batch flushed (or request rejected/failed)
  bool ok = false;     // labels are valid (even when the deadline was missed)
  QueryOutcome outcome = QueryOutcome::kPending;
  std::string error;   // service status string when !ok
  std::vector<int> labels;
  double submit_seconds = 0.0;    // router clock at submit
  double complete_seconds = 0.0;  // router clock when the batch flushed
  double deadline = kNoDeadline;  // absolute router-clock deadline
};

/// Per-tenant serving telemetry.
struct TenantServingStats {
  std::string tenant;
  std::size_t requests = 0;
  std::size_t rows = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;    // batch exhausted retries / permanent error
  std::size_t rejected = 0;  // admission control turned the submit away
  LatencyHistogram latency;
};

/// Router-wide serving telemetry.
struct ServingStats {
  std::size_t requests = 0;
  std::size_t rows = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t rejected = 0;
  std::size_t batches = 0;          // predict batches flushed
  std::size_t batched_rows = 0;     // rows across flushed batches
  std::size_t flushed_full = 0;     // flush cause: batch reached max rows
  std::size_t flushed_linger = 0;   // flush cause: linger deadline
  std::size_t flushed_forced = 0;   // flush cause: drain()/wait()
  std::size_t flushed_deadline = 0; // flush cause: tightest budget fell due
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;     // each miss uploads + trains
  std::size_t cache_evictions = 0;  // delete_model calls from LRU pressure
  std::size_t trainings = 0;        // models trained by the router
  std::size_t retries = 0;          // service-level retries (all calls)
  std::size_t rate_limited = 0;     // kRateLimited responses absorbed
  double backoff_seconds = 0.0;     // simulated sleep inside retries
  double simulated_seconds = 0.0;   // router clock when the report was cut
  LatencyHistogram latency;

  // SLO telemetry.  Resolved requests partition as
  //   requests = ok + failed + rejected + deadline_missed + degraded_rejected
  // where `ok` counts every request answered with labels within budget
  // (primary, failover and last-known-good alike; the latter two are also
  // tallied in their own sub-counters below).
  std::size_t deadline_missed = 0;   // resolved after the request's deadline
  std::size_t failovers = 0;         // answered by the fallback platform
  std::size_t degraded_answers = 0;  // answered from last-known-good
  std::size_t degraded_rejected = 0; // ladder exhausted: degraded reject
  std::size_t breaker_gated = 0;     // dispatches skipped on an open breaker
  std::size_t breaker_trips = 0;     // breaker open transitions, all platforms
  std::size_t refused_sleeps = 0;    // retry sleeps refused by deadline budgets

  /// Mean rows per flushed batch.
  double mean_batch_rows() const;
  /// mean_batch_rows / max_batch_rows in [0, 1].
  double batch_occupancy(std::size_t max_batch_rows) const;
  /// Completed rows per simulated second.
  double throughput_rows_per_sec() const;
  /// Fraction of submitted requests answered with labels within budget.
  double goodput() const;
};

/// Telemetry report: totals plus one row per tenant, written through the
/// same sidecar encoder as the campaign report.
struct ServingReport {
  ServingStats totals;
  std::vector<TenantServingStats> tenants;  // session-open order
  std::size_t max_batch_rows = 0;
  /// True when any resilience knob was on (or a per-request deadline was
  /// used).  Gates the `resilience` trailer, so chaos-off reports stay
  /// byte-identical to the pre-resilience format.
  bool resilience = false;
  /// Trace::summary() of the run's trace; empty when tracing was off.
  /// Gates the bare `trace` trailer the same way `resilience` gates its
  /// trailer.
  std::string trace_summary;

  /// The report as one value: an 11-column row per tenant then `TOTAL`,
  /// followed by the `serving`, `resilience` (gated), bare `histogram` and
  /// bare `trace` (gated) trailers.  Both sidecar formats are written from it.
  Sidecar sidecar() const;

  void write_tsv(std::ostream& out) const;
  void save_tsv(const std::string& path) const;
  void save_json(const std::string& path) const;
};

/// Validate the user-facing serving knobs the CLI front ends collect;
/// throws std::invalid_argument naming the offending flag.  Called at parse
/// time so nonsense like `--batch 0` or `--linger -5` is a usage error, not
/// a silently clamped (or undefined) run.
void validate_serving_options(const ServingOptions& options);

class QueryRouter {
 public:
  using SessionId = std::size_t;
  using Ticket = std::size_t;

  /// `platforms` must outlive the router (the campaign-roster convention).
  /// One MlaasService per platform is created from `quota_profile`, seeded
  /// by (seed, platform).
  QueryRouter(const std::vector<PlatformPtr>& platforms,
              const std::string& quota_profile, std::uint64_t seed,
              ServingOptions options);

  /// Simulated seconds since the router was created (one clock across all
  /// platform services: the router is a single gateway timeline).
  double now() const { return now_; }

  /// Bind a tenant to (platform, training set, config, train seed) and
  /// ensure its model is trained and cached (training happens here, and
  /// again after an LRU eviction, always from `train_seed` — which is what
  /// makes re-train-on-miss deterministic).  Throws std::invalid_argument
  /// for an unknown platform; returns nullopt when training fails
  /// permanently (the reason is in last_error()).
  std::optional<SessionId> open_session(const std::string& tenant,
                                        const std::string& platform,
                                        const Dataset& train, const PipelineConfig& config,
                                        std::uint64_t train_seed);
  void close_session(SessionId session);

  /// Queue `x` for the session's model.  The request rides the model's
  /// current micro-batch: it flushes when the batch reaches max_batch_rows,
  /// when the linger deadline passes during advance_to(), when the tightest
  /// member budget falls due, or on wait()/drain().  Returns nullopt (and
  /// counts a rejection) when the platform's pending-row cap would be
  /// exceeded.  `deadline_seconds` is this request's budget in simulated
  /// seconds from now: negative (the default) uses
  /// ServingOptions::deadline_seconds, 0 means explicitly unbounded.
  std::optional<Ticket> submit(SessionId session, const Matrix& x,
                               double deadline_seconds = -1.0);

  /// Advance the simulated clock to `t`, flushing every batch whose linger
  /// deadline falls due, in deterministic (deadline, sequence) order.
  void advance_to(double t);

  /// Block (in simulated time) until the ticket's batch has flushed: the
  /// clock advances to the batch's linger deadline, which flushes it.
  const QueryResult& wait(Ticket ticket);
  const QueryResult& result(Ticket ticket) const { return results_.at(ticket); }

  /// Flush everything still pending (end of run).
  void drain();

  /// Telemetry snapshot (totals + per-tenant rows, histogram included).
  ServingReport report() const;
  /// Router-wide counters, folding in the per-platform retry/rate-limit
  /// totals and the current simulated clock.
  ServingStats stats() const;
  /// Request counters of one platform's underlying service.
  const ServiceStats& platform_stats(const std::string& platform) const;
  std::size_t cached_models() const { return lru_.size(); }
  const std::string& last_error() const { return last_error_; }
  /// The run's trace (nullptr unless ServingOptions::trace was set).
  const Trace* trace() const { return trace_.get(); }

 private:
  struct PlatformState {
    const Platform* platform = nullptr;
    std::unique_ptr<MlaasService> service;
    std::unique_ptr<RetryingClient> client;
    std::size_t pending_rows = 0;
    CircuitBreaker breaker{BreakerOptions{}};
  };

  struct Session {
    std::string tenant;
    std::size_t platform = 0;
    std::string model_key;
    std::string fallback_key;  // model key on the fallback platform (ladder)
    Dataset train;             // kept for re-train after LRU eviction
    PipelineConfig config;
    std::uint64_t train_seed = 0;
    bool open = false;
  };

  struct PendingRequest {
    Ticket ticket = 0;
    std::size_t rows = 0;
    std::string tenant;
    double deadline = kNoDeadline;  // absolute router-clock deadline
  };

  struct Batch {
    std::string model_key;
    std::size_t platform = 0;
    std::size_t session = 0;      // any session of this model (for re-train)
    std::uint64_t seq = 0;        // creation order, breaks deadline ties
    double deadline = 0.0;        // first-row time + linger
    double budget_deadline = kNoDeadline;  // tightest member deadline
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::vector<double> data;     // row-major concatenation
    std::vector<PendingRequest> requests;
  };

  struct CachedModel {
    std::string key;
    std::size_t platform = 0;
    std::string handle;
  };

  enum class FlushCause { kFull, kLinger, kDeadline, kForced };

  /// When a batch falls due: its linger deadline or its tightest member
  /// budget, whichever comes first.
  static double due_at(const Batch& batch);
  /// Sync a platform service's clock up to the router clock, run `call`,
  /// then fold the service's elapsed time back into the router clock.
  template <typename Fn>
  ServiceStatus timed_call(PlatformState& ps, Fn&& call);

  /// Handle for `model_key` on `platform`, training from `session`'s spec on
  /// a cache miss (within `deadline`); empty on failure (status recorded in
  /// last_error_).  Used for both the primary and the fallback rung — the
  /// two differ only in (platform, key).
  std::string acquire_model(std::size_t session, std::size_t platform,
                            const std::string& model_key, double deadline);
  void evict_to_capacity(std::size_t capacity);
  void flush(const std::string& model_key, FlushCause cause);
  TenantServingStats& tenant_stats(const std::string& tenant);

  std::vector<PlatformState> platforms_;
  std::map<std::string, std::size_t> platform_index_;
  ServingOptions options_;
  std::optional<std::size_t> fallback_index_;  // resolved fallback_platform
  bool resilience_ = false;  // any resilience knob on / deadline ever used
  double now_ = 0.0;

  std::vector<Session> sessions_;
  std::vector<QueryResult> results_;
  std::map<std::string, Batch> batches_;  // model_key -> open batch
  std::uint64_t batch_seq_ = 0;

  std::list<CachedModel> lru_;  // front = most recently used
  std::map<std::string, std::list<CachedModel>::iterator> cache_index_;
  // Last-known-good ladder rung: trained models retained per model key
  // (shared ownership: they survive delete_model and cache eviction).
  std::map<std::string, std::shared_ptr<const TrainedModel>> last_known_good_;

  ServingStats stats_;
  std::vector<TenantServingStats> tenants_;  // session-open order
  std::map<std::string, std::size_t> tenant_index_;
  std::string last_error_;

  // Tracing (null when off).  The router is single-threaded over one
  // simulated clock, so it owns the Trace directly: track 0 is the router
  // (flush spans + ladder rungs), then one track per platform in roster
  // order (service spans, retry waits, breaker transitions).
  std::unique_ptr<Trace> trace_;
  TraceTrack* router_track_ = nullptr;
};

// ---------------------------------------------------------------------------
// Workload generator (bench_ext_serving and `mlaas_cli serve-bench`).

/// One tenant of a serving workload: traffic share, platform binding and the
/// training set + config + seed its model is built from.
struct ServingTenantSpec {
  std::string tenant;
  std::string platform;
  double weight = 1.0;                 // relative traffic share
  Dataset train;
  PipelineConfig config;               // empty = platform default pipeline
  std::uint64_t train_seed = 0;
  std::size_t max_rows_per_request = 8;
};

/// Seeded default mix: `n_tenants` tenants with Zipf-skewed weights (tenant
/// i carries weight 1/(i+1)) round-robined over `platforms`, each with its
/// own small synthetic training set.
std::vector<ServingTenantSpec> make_serving_tenants(
    std::size_t n_tenants, const std::vector<std::string>& platforms,
    std::uint64_t seed);

struct ServingWorkloadOptions {
  std::uint64_t seed = 42;
  /// Total predict requests issued (open-loop arrivals, or spread over the
  /// closed-loop clients).
  std::size_t requests = 2000;
  /// Open-loop: mean arrivals per simulated second (exponential gaps).
  double arrival_rate = 50.0;
  /// Closed-loop instead of open-loop: `clients` callers that each wait for
  /// their previous request before sending the next.
  bool closed_loop = false;
  std::size_t clients = 8;
  std::string quota_profile = "default";
  ServingOptions serving;
};

struct ServingWorkloadResult {
  ServingReport report;
  double wall_seconds = 0.0;  // real time spent driving the router
  /// Copy of the router's trace (null unless options.serving.trace).
  std::shared_ptr<const Trace> trace;
};

/// Drive a QueryRouter with a seeded multi-tenant workload.  Deterministic in
/// (tenants, options): same seed, same report — wall_seconds excepted.
ServingWorkloadResult run_serving_workload(const std::vector<ServingTenantSpec>& tenants,
                                           const ServingWorkloadOptions& options);

}  // namespace mlaas
