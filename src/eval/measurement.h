// Measurement collection (§3.2, Table 2).
//
// For every (dataset, platform, configuration) triple the campaign runner
// opens a simulated service session (platform/service.h) and drives the
// upload/train/predict round-trip with retries — the in-process analogue of
// the paper's 2.1M cloud measurements, including the rate limits, quotas
// and transient faults the original ~5-month campaign had to survive.
// Cells that exhaust their retry budget or hit permanent errors are kept as
// structured failure rows (Measurement::ok == false) so a partially failed
// campaign still aggregates, the way the paper excluded unreachable
// providers.  Tables are cached to CSV (with a fingerprint header) so every
// bench binary can share one measurement pass; per-platform service
// telemetry is emitted alongside as a campaign report.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "ml/metrics.h"
#include "platform/all_platforms.h"
#include "platform/breaker.h"
#include "platform/service.h"
#include "util/io.h"

namespace mlaas {

class Trace;

struct Measurement {
  std::string dataset_id;
  std::string platform;
  std::string feature_step;  // "none" when absent
  std::string classifier;    // "auto" for black-box platforms
  std::string params;        // canonical ParamMap string
  bool default_params = false;  // params equal the platform's defaults
  Metrics test;
  /// Training cost in per-thread CPU seconds (CLOCK_THREAD_CPUTIME_ID) — the
  /// "training time" evaluation dimension the paper defers to future work
  /// (§8).  CPU time, not wall time: an oversubscribed campaign (--threads
  /// above the core count) must not inflate the measured training cost of
  /// the configuration it happened to deschedule.
  double train_seconds = 0.0;
  /// Prediction cost over the full test split, in the same per-thread CPU
  /// seconds as train_seconds — the query-side half of the cost picture.
  double predict_seconds = 0.0;
  /// Predicted labels on the first kLabelSignatureSize test samples (a '0'/
  /// '1' string).  §6.2 trains the classifier-family meta-predictor on
  /// "aggregated performance metrics and the predicted labels"; the
  /// signature carries the latter.  Identical sample order across configs of
  /// a dataset (the split is seeded per dataset).
  std::string label_signature;
  /// Campaign outcome.  ok == false marks a cell whose service round-trip
  /// failed permanently (retries exhausted, quota hit, server error);
  /// `failure` then holds "<step>:<service-status>".  Failed cells carry no
  /// metrics and are excluded from every aggregation.  A cell skipped by an
  /// open circuit breaker instead carries the dedicated "deferred" status
  /// (ok == false, failure == kDeferredStatus) — excluded from aggregation
  /// like a failure, but counted separately in the campaign telemetry.
  bool ok = true;
  std::string failure;

  bool deferred() const;
};

/// Status string of a cell skipped by an open circuit breaker.
inline constexpr const char* kDeferredStatus = "deferred";

inline constexpr std::size_t kLabelSignatureSize = 256;

class MeasurementTable {
 public:
  void add(Measurement m) { rows_.push_back(std::move(m)); }
  void append(const MeasurementTable& other);
  const std::vector<Measurement>& rows() const { return rows_; }
  std::size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Rows matching a predicate.
  MeasurementTable filter(const std::function<bool(const Measurement&)>& pred) const;
  MeasurementTable for_platform(const std::string& platform) const;
  MeasurementTable for_dataset(const std::string& dataset_id) const;
  /// Successful cells only / failed cells only (failures include deferred
  /// cells; deferred() narrows to just those).
  MeasurementTable succeeded() const;
  MeasurementTable failures() const;
  MeasurementTable deferred() const;

  /// Baseline rows (§3.2): no FEAT, LR (or automated), default parameters.
  MeasurementTable baseline() const;

  /// Distinct values of a column.
  std::vector<std::string> platforms() const;
  std::vector<std::string> dataset_ids() const;
  std::vector<std::string> classifiers() const;

  /// Best test F-score per dataset (the paper's "optimized" aggregation).
  /// Returns (dataset_id, best row) pairs.  Failed cells are skipped.
  std::vector<const Measurement*> best_per_dataset() const;

  /// Write the table; a non-empty `fingerprint` is stored as a '#' header
  /// line so run_or_load can reject stale caches.
  void save_csv(const std::string& path, const std::string& fingerprint = "") const;
  /// Load a table written by save_csv: an optional '# fingerprint' line, the
  /// exact column header, then rows.  A missing or different header and a
  /// malformed row raise std::runtime_error naming path:line.  When the file
  /// carries a fingerprint line it is returned via `fingerprint` (empty
  /// otherwise).
  static MeasurementTable load_csv(const std::string& path,
                                   std::string* fingerprint = nullptr);

 private:
  std::vector<Measurement> rows_;
};

/// Serialize/parse one measurement row: 14 tab-separated columns, status
/// last.  Shared by the CSV cache and the write-ahead cell journal so both
/// stay byte-compatible.
std::string measurement_row_to_tsv(const Measurement& m);
/// `context` names the source (path:line) in parse errors.
Measurement measurement_row_from_tsv(const std::string& line, const std::string& context);

// The per-(dataset, platform) session circuit breaker lives in
// platform/breaker.h since the serving router runs one per (platform,
// router) too; the campaign driver keeps its original use — it sleeps out
// the cooldown (kWait/kProbe) and sends the next cell as a half-open probe,
// scoped to one session so campaigns stay deterministic under any thread
// count.

/// Operational knobs of the campaign transport (ISSUE: fault rate, quota
/// profile, retry budget, chaos schedule, breakers, journal) — threaded from
/// StudyOptions and the CLI down to every per-cell service session.
struct CampaignOptions {
  /// Probability any simulated request fails transiently.
  double fault_rate = 0.0;
  /// Named ServiceQuota envelope (see quota_profile()).
  std::string quota_profile = "default";
  /// Max attempts per request before the cell is recorded as failed.
  int retry_budget = 6;
  /// Decorrelated retry jitter (seeded per session; off keeps the campaign
  /// bit-identical to the pure-exponential schedule).
  bool jitter = false;
  /// Named correlated-failure schedule (see make_fault_plan()); "none"
  /// keeps the scalar fault_rate model.
  std::string chaos_profile = "none";
  /// Per-session circuit breaker (default disabled).
  BreakerOptions breaker;
  /// Write-ahead cell journal: every finished cell is appended (fsync'd)
  /// here, and a later run with `resume` set restores completed sessions
  /// instead of re-running them.  Empty disables journaling.  run_or_load
  /// fills this with "<cache_path>.journal" when unset.
  std::string journal_path;
  /// Restore from an existing journal (--resume, the default); false starts
  /// the journal fresh (--fresh).
  bool resume = true;
  /// Test hook: invoked after every journaled cell (crash injection throws
  /// from here).  Not part of the campaign fingerprint.
  std::function<void(std::size_t cells_journaled)> after_cell_hook;

  /// Resolve the per-platform quota under this campaign (profile envelope
  /// with the campaign's fault rate and chaos fault plan applied; the plan
  /// is seeded by (seed, platform)).
  ServiceQuota quota_for(const std::string& platform, std::uint64_t seed = 0) const;
  RetryPolicy retry_policy(std::uint64_t session_seed) const;
};

/// How run_campaign distributes (dataset, platform) sessions over the pool.
///   kStatic  — the pre-scheduler behaviour: one work item per dataset,
///              statically chunked; kept for comparison benchmarks.
///   kDynamic — one work item per session, dispatched longest-estimated-first
///              through ThreadPool::parallel_for_dynamic's atomic ticket.
/// The measured table is byte-identical either way (sessions are
/// independently seeded and results land in preallocated slots); only the
/// wall-clock and the scheduler telemetry differ.
enum class Schedule { kStatic, kDynamic };

/// Parse "static" / "dynamic"; throws std::invalid_argument naming the
/// --schedule flag otherwise.
Schedule parse_schedule(const std::string& name);
const char* to_string(Schedule schedule);

struct MeasurementOptions {
  std::uint64_t seed = 42;
  /// Multiplies the per-classifier parameter-grid cap and the joint sample
  /// toward the paper's full grids.
  double scale = 1.0;
  std::size_t max_para_configs = 12;  // per-classifier PARA cap (scaled)
  std::size_t joint_sample = 40;      // extra FEAT x CLF x PARA joint draws (scaled)
  double test_fraction = 0.3;         // §3.1's 70/30 split
  int threads = 0;                    // 0 = hardware concurrency; < 0 rejected
  Schedule schedule = Schedule::kDynamic;  // session dispatch policy
  bool verbose = false;
  /// Record a deterministic end-to-end trace of every session (service
  /// spans, retry waits, breaker transitions) — one TraceTrack per session,
  /// assembled in canonical order after the pool joins.  Off by default;
  /// tracing changes no measured row and no legacy report byte, and is
  /// deliberately excluded from measurement_fingerprint so existing caches
  /// and journals stay valid.
  bool trace = false;
  CampaignOptions campaign;           // service-transport envelope

  /// The ThreadPool size `threads` asks for (0 = hardware concurrency).
  /// Throws std::invalid_argument naming `caller` when threads < 0; callers
  /// ask before any work starts.
  std::size_t pool_size(const char* caller) const;
};

/// Per-platform campaign telemetry: merged service counters plus cell
/// accounting, aggregated across every (dataset, platform) session.
struct PlatformCampaignStats {
  std::string platform;
  ServiceStats service;
  std::size_t retries = 0;
  double backoff_seconds = 0.0;   // simulated sleep (backoff + rate stalls)
  double simulated_seconds = 0.0; // simulated campaign wall-clock
  std::size_t cells_total = 0;    // configs x datasets offered
  std::size_t cells_ok = 0;
  std::size_t cells_failed = 0;   // excludes deferred cells
  std::size_t cells_rejected = 0; // bad-request: config outside the surface
  std::size_t cells_deferred = 0; // skipped by an open circuit breaker
  std::size_t cells_restored = 0; // resumed from the write-ahead journal
  std::size_t breaker_trips = 0;  // times a session breaker opened
  double outage_seconds = 0.0;    // simulated seconds inside outage windows
  std::map<std::string, std::size_t> failures_by_status;

  /// Scalar telemetry in declaration order — drives merge() (and the
  /// perfbench digest).  `service` and `failures_by_status` have their own
  /// merge paths and are visited separately.
  template <typename Self, typename Visitor>
  static void visit_fields(Self& self, Visitor&& visit) {
    visit("retries", self.retries);
    visit("backoff_seconds", self.backoff_seconds);
    visit("simulated_seconds", self.simulated_seconds);
    visit("cells_total", self.cells_total);
    visit("cells_ok", self.cells_ok);
    visit("cells_failed", self.cells_failed);
    visit("cells_rejected", self.cells_rejected);
    visit("cells_deferred", self.cells_deferred);
    visit("cells_restored", self.cells_restored);
    visit("breaker_trips", self.breaker_trips);
    visit("outage_seconds", self.outage_seconds);
  }

  /// Account one finished cell: ok, deferred, or failed (failures also by
  /// status).  The one place a row's outcome becomes a counter, for run and
  /// restored sessions alike.
  void count(const Measurement& m);
  void merge(const PlatformCampaignStats& other);
  /// Fraction of attempted cells that produced a measurement.
  double coverage() const;
};

/// Telemetry of the session scheduler for one campaign: how evenly the
/// (dataset, platform) sessions spread over the pool.  Unlike the platform
/// rows, these numbers are real wall-clock and thread-count dependent — they
/// describe the run, not the measurements, and are excluded from every
/// determinism comparison.
struct SchedulerStats {
  std::string schedule = "static";   // "static" or "dynamic"
  std::size_t workers = 0;           // pool size actually used
  std::size_t sessions = 0;          // (dataset, platform) work items
  std::size_t sessions_stolen = 0;   // sessions run off their static-owner worker
  double makespan_seconds = 0.0;     // wall seconds of the dispatch
  std::vector<double> worker_busy_seconds;  // per-worker time inside sessions

  double busy_seconds() const;  // sum over workers
  /// max(worker busy) / mean(worker busy); 1.0 = perfectly balanced.
  double imbalance() const;
};

/// Campaign-wide telemetry report, one entry per platform (roster order).
struct CampaignReport {
  std::vector<PlatformCampaignStats> platforms;
  SchedulerStats scheduler;
  /// Trace summary (Trace::summary()) of a traced campaign; empty when
  /// tracing was off.  Rides the TSV sidecar as a "# trace" trailer line so
  /// untraced report bytes are unchanged.
  std::string trace_summary;

  PlatformCampaignStats totals() const;
  double coverage() const { return totals().coverage(); }

  /// The report as one value: a 23-column row per platform, then the
  /// `scheduler` trailer (pooled runs only) and the bare `trace` trailer
  /// (traced runs only).  Both sidecar formats are written from it.
  Sidecar sidecar() const;

  /// Write-only sidecars: nothing in the library reads a report back.
  void save_tsv(const std::string& path) const;
  void save_json(const std::string& path) const;
};

/// The configuration set measured for one platform (§3.2): the baseline, all
/// FEAT x default-CLF combos, all CLF defaults, each classifier's PARA grid,
/// FEAT x CLF defaults, and a seeded joint FEAT x CLF x PARA sample.
/// Deduplicated by config key.
std::vector<PipelineConfig> enumerate_configs(const Platform& platform,
                                              const MeasurementOptions& options);

struct CampaignResult {
  MeasurementTable table;   // ok rows and failure rows
  CampaignReport report;
  /// Full event trace when MeasurementOptions::trace was set; null otherwise.
  /// Tracks are in canonical session order (dataset-major, platform-minor),
  /// so Trace::write_chrome_json is byte-identical across thread counts,
  /// schedules and reruns.
  std::shared_ptr<const Trace> trace;
};

/// Run the full study through the simulated service layer: every platform
/// on every corpus dataset, one MlaasService session per (dataset,
/// platform) cell, upload/train/predict with retries.  Deterministic in
/// (options, corpus, platforms) regardless of thread count, schedule and
/// steal order: sessions are independently seeded, write into preallocated
/// per-session slots, and the per-dataset split is computed once behind a
/// std::call_once.  With campaign.fault_rate == 0 the measurements are
/// identical to direct Platform::train calls.
///
/// Crash safety: with campaign.journal_path set, every finished cell is
/// appended to an fsync'd write-ahead journal and every finished session
/// gets a completion marker.  With campaign.resume, sessions whose marker
/// made it to disk before a crash are restored from the journal; sessions
/// caught mid-flight re-run from scratch (each session's request stream is
/// independently seeded, so a re-run is bit-identical to the uninterrupted
/// run — wall-clock train_seconds / predict_seconds excepted).
CampaignResult run_campaign(const std::vector<Dataset>& corpus,
                            const std::vector<PlatformPtr>& platforms,
                            const MeasurementOptions& options);

/// Train/evaluate one (dataset, platform, config) in-process (no service
/// envelope) and return the row; nullopt when the platform rejects the
/// config.  Unexpected platform errors yield a failure row (ok == false)
/// instead of propagating.
std::optional<Measurement> measure_one(const Dataset& dataset, const Platform& platform,
                                       const PipelineConfig& config,
                                       const MeasurementOptions& options);

/// Identity of a measurement pass: format version, corpus size, platform
/// roster, the knobs that shape the table and a trailing `data=<16 hex>`
/// digest of the corpus contents.  Stored in the cache header; a mismatch
/// forces a re-run.
std::string measurement_fingerprint(const std::vector<Dataset>& corpus,
                                    const std::vector<PlatformPtr>& platforms,
                                    const MeasurementOptions& options);

/// Cache wrapper: load `cache_path` when present, readable and carrying a
/// matching fingerprint; otherwise run the campaign and save the table plus
/// its telemetry sidecars (cache_path + ".campaign.tsv" / ".campaign.json").
/// The sidecars are written after a fresh run only; a cache hit leaves them
/// untouched.
MeasurementTable run_or_load(const std::vector<Dataset>& corpus,
                             const std::vector<PlatformPtr>& platforms,
                             const MeasurementOptions& options,
                             const std::string& cache_path);

/// Default cache path for a seed/scale pair (shared by all bench binaries).
/// The scale is printed as in the fingerprint: 6 significant digits when
/// they read back exactly, else 17, so two scales never share a path.
std::string default_cache_path(std::uint64_t seed, double scale);

}  // namespace mlaas
