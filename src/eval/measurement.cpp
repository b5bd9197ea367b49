#include "eval/measurement.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "data/split.h"
#include "eval/journal.h"
#include "ml/tree/trainer.h"
#include "util/clock.h"
#include "util/io.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace mlaas {

bool Measurement::deferred() const { return !ok && failure == kDeferredStatus; }

void MeasurementTable::append(const MeasurementTable& other) {
  rows_.insert(rows_.end(), other.rows_.begin(), other.rows_.end());
}

MeasurementTable MeasurementTable::filter(
    const std::function<bool(const Measurement&)>& pred) const {
  MeasurementTable out;
  for (const auto& row : rows_) {
    if (pred(row)) out.add(row);
  }
  return out;
}

MeasurementTable MeasurementTable::for_platform(const std::string& platform) const {
  return filter([&](const Measurement& m) { return m.platform == platform; });
}

MeasurementTable MeasurementTable::for_dataset(const std::string& dataset_id) const {
  return filter([&](const Measurement& m) { return m.dataset_id == dataset_id; });
}

MeasurementTable MeasurementTable::succeeded() const {
  return filter([](const Measurement& m) { return m.ok; });
}

MeasurementTable MeasurementTable::failures() const {
  return filter([](const Measurement& m) { return !m.ok; });
}

MeasurementTable MeasurementTable::deferred() const {
  return filter([](const Measurement& m) { return m.deferred(); });
}

MeasurementTable MeasurementTable::baseline() const {
  return filter([](const Measurement& m) {
    const bool default_clf =
        m.classifier == "auto" || m.classifier == "logistic_regression";
    return m.ok && m.feature_step == "none" && default_clf && m.default_params;
  });
}

namespace {
std::vector<std::string> distinct(const std::vector<Measurement>& rows,
                                  const std::function<std::string(const Measurement&)>& get) {
  std::set<std::string> seen;
  std::vector<std::string> out;
  for (const auto& row : rows) {
    if (seen.insert(get(row)).second) out.push_back(get(row));
  }
  return out;
}
}  // namespace

std::vector<std::string> MeasurementTable::platforms() const {
  return distinct(rows_, [](const Measurement& m) { return m.platform; });
}

std::vector<std::string> MeasurementTable::dataset_ids() const {
  return distinct(rows_, [](const Measurement& m) { return m.dataset_id; });
}

std::vector<std::string> MeasurementTable::classifiers() const {
  return distinct(rows_, [](const Measurement& m) { return m.classifier; });
}

std::vector<const Measurement*> MeasurementTable::best_per_dataset() const {
  std::map<std::string, const Measurement*> best;
  for (const auto& row : rows_) {
    if (!row.ok) continue;  // failed cells carry no metrics
    auto [it, inserted] = best.emplace(row.dataset_id, &row);
    if (!inserted && row.test.f_score > it->second->test.f_score) it->second = &row;
  }
  std::vector<const Measurement*> out;
  out.reserve(best.size());
  for (const auto& [id, row] : best) out.push_back(row);
  return out;
}

namespace {

constexpr const char* kCsvHeader =
    "dataset\tplatform\tfeat\tclf\tparams\tdefault\tf\tacc\tprec\trec\tsec\tpsec\tsig\t"
    "status";

/// Split on tabs, keeping empty fields (istringstream-based getline drops a
/// trailing empty field, which would mis-count columns on failed rows).
std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

double parse_double_field(const std::string& context, const std::string& column,
                          const std::string& value) {
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(value, &consumed);
    if (consumed != value.size()) throw std::invalid_argument("trailing characters");
    return parsed;
  } catch (const std::exception&) {
    throw std::runtime_error("MeasurementTable: " + context + ": bad numeric field '" +
                             column + "' = '" + value + "'");
  }
}

}  // namespace

std::string measurement_row_to_tsv(const Measurement& m) {
  std::ostringstream out;
  // max_digits10: rows restored from a journal must reproduce the in-memory
  // doubles bit for bit, or a resumed campaign would differ from an
  // uninterrupted one.
  out.precision(17);
  out << m.dataset_id << '\t' << m.platform << '\t' << m.feature_step << '\t'
      << m.classifier << '\t' << m.params << '\t' << (m.default_params ? 1 : 0) << '\t'
      << m.test.f_score << '\t' << m.test.accuracy << '\t' << m.test.precision << '\t'
      << m.test.recall << '\t' << m.train_seconds << '\t' << m.predict_seconds << '\t'
      << m.label_signature << '\t' << (m.ok ? "ok" : m.failure);
  return out.str();
}

Measurement measurement_row_from_tsv(const std::string& line, const std::string& context) {
  const auto fields = split_tabs(line);
  if (fields.size() != 14) {
    throw std::runtime_error("MeasurementTable: " + context + ": expected 14 columns, got " +
                             std::to_string(fields.size()));
  }
  Measurement m;
  m.dataset_id = fields[0];
  m.platform = fields[1];
  m.feature_step = fields[2];
  m.classifier = fields[3];
  m.params = fields[4];
  m.default_params = fields[5] == "1";
  m.test.f_score = parse_double_field(context, "f", fields[6]);
  m.test.accuracy = parse_double_field(context, "acc", fields[7]);
  m.test.precision = parse_double_field(context, "prec", fields[8]);
  m.test.recall = parse_double_field(context, "rec", fields[9]);
  m.train_seconds =
      fields[10].empty() ? 0.0 : parse_double_field(context, "sec", fields[10]);
  m.predict_seconds =
      fields[11].empty() ? 0.0 : parse_double_field(context, "psec", fields[11]);
  m.label_signature = fields[12];
  const std::string& status = fields[13];
  if (status != "ok" && !status.empty()) {
    m.ok = false;
    m.failure = status;
  }
  return m;
}

void MeasurementTable::save_csv(const std::string& path,
                                const std::string& fingerprint) const {
  std::ofstream out = open_sidecar(path, "MeasurementTable");
  if (!fingerprint.empty()) out << "# " << fingerprint << '\n';
  out << kCsvHeader << '\n';
  for (const auto& m : rows_) out << measurement_row_to_tsv(m) << '\n';
  finish_sidecar(out, path, "MeasurementTable");
}

MeasurementTable MeasurementTable::load_csv(const std::string& path,
                                            std::string* fingerprint) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("MeasurementTable: cannot read " + path);
  if (fingerprint != nullptr) fingerprint->clear();
  MeasurementTable table;
  std::string line;
  std::size_t line_no = 0;
  // Optional '# fingerprint' line, then exactly the column header.
  if (!std::getline(in, line)) {
    throw std::runtime_error("MeasurementTable: " + path + ": empty file");
  }
  ++line_no;
  if (!line.empty() && line[0] == '#') {
    std::string fp = line.substr(1);
    const std::size_t first = fp.find_first_not_of(' ');
    if (fingerprint != nullptr && first != std::string::npos) {
      *fingerprint = fp.substr(first);
    }
    std::getline(in, line);  // at EOF: empty or still the '#' line, both rejected
    ++line_no;
  }
  if (line != kCsvHeader) {
    throw std::runtime_error("MeasurementTable: " + path + ":" + std::to_string(line_no) +
                             ": expected the column header");
  }
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    table.add(measurement_row_from_tsv(line, path + ":" + std::to_string(line_no)));
  }
  return table;
}

Schedule parse_schedule(const std::string& name) {
  if (name == "static") return Schedule::kStatic;
  if (name == "dynamic") return Schedule::kDynamic;
  throw std::invalid_argument("--schedule must be 'static' or 'dynamic', got '" + name + "'");
}

const char* to_string(Schedule schedule) {
  return schedule == Schedule::kStatic ? "static" : "dynamic";
}

double SchedulerStats::busy_seconds() const {
  return std::accumulate(worker_busy_seconds.begin(), worker_busy_seconds.end(), 0.0);
}

double SchedulerStats::imbalance() const {
  if (worker_busy_seconds.empty()) return 1.0;
  double max_busy = 0.0;
  for (double b : worker_busy_seconds) max_busy = std::max(max_busy, b);
  const double mean =
      busy_seconds() / static_cast<double>(worker_busy_seconds.size());
  return mean > 0.0 ? max_busy / mean : 1.0;
}

ServiceQuota CampaignOptions::quota_for(const std::string& platform,
                                        std::uint64_t seed) const {
  ServiceQuota q = ::mlaas::quota_profile(quota_profile, platform);
  q.fault_rate = fault_rate;
  q.fault_plan = make_fault_plan(chaos_profile, platform, seed);
  return q;
}

RetryPolicy CampaignOptions::retry_policy(std::uint64_t session_seed) const {
  RetryPolicy policy;
  policy.max_attempts = retry_budget;
  policy.jitter = jitter;
  policy.jitter_seed = session_seed;
  return policy;
}

void PlatformCampaignStats::count(const Measurement& m) {
  if (m.ok) {
    ++cells_ok;
  } else if (m.deferred()) {
    ++cells_deferred;
  } else {
    ++cells_failed;
    ++failures_by_status[m.failure];
  }
}

void PlatformCampaignStats::merge(const PlatformCampaignStats& other) {
  service.merge(other.service);
  merge_stats(*this, other);
  for (const auto& [status, count] : other.failures_by_status) {
    failures_by_status[status] += count;
  }
}

double PlatformCampaignStats::coverage() const {
  // Deferred cells count against coverage: an excluded platform's cells were
  // offered but never measured, exactly like permanent failures.
  const std::size_t attempted = cells_ok + cells_failed + cells_deferred;
  return attempted == 0 ? 1.0
                        : static_cast<double>(cells_ok) / static_cast<double>(attempted);
}

PlatformCampaignStats CampaignReport::totals() const {
  PlatformCampaignStats total;
  total.platform = "TOTAL";
  for (const auto& p : platforms) total.merge(p);
  return total;
}

namespace {

std::string encode_failures(const std::map<std::string, std::size_t>& failures) {
  if (failures.empty()) return "-";
  std::string out;
  for (const auto& [status, count] : failures) {
    if (!out.empty()) out += ';';
    out += status + "=" + std::to_string(count);
  }
  return out;
}

std::string encode_worker_busy(const std::vector<double>& busy) {
  if (busy.empty()) return "-";
  std::ostringstream out;
  out.precision(6);
  for (std::size_t i = 0; i < busy.size(); ++i) {
    if (i > 0) out << ';';
    out << busy[i];
  }
  return out.str();
}

}  // namespace

Sidecar CampaignReport::sidecar() const {
  Sidecar s;
  s.rows_name = "platforms";
  s.columns = {"platform", "cells_total", "cells_ok", "cells_failed", "cells_rejected",
               "cells_deferred", "cells_restored", "requests", "uploads", "trainings",
               "predictions", "rate_limited", "transient_errors", "server_errors",
               "unavailable", "retries", "breaker_trips", "backoff_sec", "outage_sec",
               "simulated_sec", "train_cpu_sec", "predict_cpu_sec", "failures"};
  for (const auto& p : platforms) {
    s.rows.push_back({p.platform, p.cells_total, p.cells_ok, p.cells_failed, p.cells_rejected,
                      p.cells_deferred, p.cells_restored, p.service.requests,
                      p.service.uploads, p.service.trainings, p.service.predictions,
                      p.service.rate_limited, p.service.transient_errors,
                      p.service.server_errors, p.service.unavailable, p.retries,
                      p.breaker_trips, p.backoff_seconds, p.outage_seconds,
                      p.simulated_seconds, p.service.train_cpu_seconds,
                      p.service.predict_cpu_seconds, encode_failures(p.failures_by_status)});
  }
  // Scheduler telemetry exists only for a pooled run; the trace summary only
  // for a traced one, so untraced sidecar bytes are unchanged from
  // pre-trace builds.
  if (scheduler.workers > 0) {
    s.trailers.push_back({"scheduler",
                          {{"schedule", scheduler.schedule},
                           {"workers", scheduler.workers},
                           {"sessions", scheduler.sessions},
                           {"stolen", scheduler.sessions_stolen},
                           {"makespan_sec", scheduler.makespan_seconds},
                           {"busy_sec", scheduler.busy_seconds()},
                           {"imbalance", scheduler.imbalance()},
                           {"worker_busy_sec",
                            encode_worker_busy(scheduler.worker_busy_seconds)}}});
  }
  if (!trace_summary.empty()) s.trailers.push_back({"trace", {{"", trace_summary}}});
  return s;
}

void CampaignReport::save_tsv(const std::string& path) const {
  sidecar().save_tsv(path, "CampaignReport");
}

void CampaignReport::save_json(const std::string& path) const {
  sidecar().save_json(path, "CampaignReport");
}

std::vector<PipelineConfig> enumerate_configs(const Platform& platform,
                                              const MeasurementOptions& options) {
  const ControlSurface surface = platform.controls();
  const std::size_t para_cap = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             options.scale * static_cast<double>(options.max_para_configs))));

  std::vector<PipelineConfig> configs;
  std::set<std::string> seen;
  auto push = [&](PipelineConfig config) {
    if (seen.insert(config.key()).second) configs.push_back(std::move(config));
  };

  // Baseline first (black-box platforms only ever have this row).
  push(platform.baseline_config());
  if (!surface.classifier_choice && !surface.parameter_tuning &&
      !surface.feature_selection) {
    return configs;
  }

  // CLF dimension: every classifier at its platform defaults.
  for (const auto& spec : surface.classifiers) {
    PipelineConfig config;
    config.classifier = spec.classifier;
    config.params = spec.default_config();
    push(config);
  }

  // Per-classifier PARA grids, expanded once and shared by the PARA
  // dimension and the joint sample below (the joint loop used to re-expand
  // the grid for every draw).
  std::vector<std::vector<ParamMap>> grids;
  if (surface.parameter_tuning) {
    grids.reserve(surface.classifiers.size());
    for (const auto& spec : surface.classifiers) {
      grids.push_back(expand_grid(spec, para_cap, options.seed));
    }
  }

  // PARA dimension: each classifier's grid (capped), no FEAT.
  if (surface.parameter_tuning) {
    for (std::size_t c = 0; c < surface.classifiers.size(); ++c) {
      for (const auto& params : grids[c]) {
        PipelineConfig config;
        config.classifier = surface.classifiers[c].classifier;
        config.params = params;
        push(std::move(config));
      }
    }
  }

  // FEAT dimension: every feature step with every classifier at defaults.
  if (surface.feature_selection) {
    for (const auto& feat : surface.feature_steps) {
      for (const auto& spec : surface.classifiers) {
        PipelineConfig config;
        config.feature_step = feat;
        config.classifier = spec.classifier;
        config.params = spec.default_config();
        push(std::move(config));
      }
    }
  }

  // Joint FEAT x CLF x PARA sample (the paper's full cross product, scaled).
  if (surface.feature_selection && surface.parameter_tuning &&
      !surface.feature_steps.empty() && !surface.classifiers.empty()) {
    const std::size_t joint = static_cast<std::size_t>(
        std::llround(options.scale * static_cast<double>(options.joint_sample)));
    Rng rng(derive_seed(options.seed, "joint-" + platform.name()));
    for (std::size_t k = 0; k < joint; ++k) {
      const auto& feat = surface.feature_steps[rng.index(surface.feature_steps.size())];
      const std::size_t c = rng.index(surface.classifiers.size());
      const auto& grid = grids[c];
      if (grid.empty()) continue;  // classifier with no expandable grid
      PipelineConfig config;
      config.feature_step = feat;
      config.classifier = surface.classifiers[c].classifier;
      config.params = grid[rng.index(grid.size())];
      push(std::move(config));
    }
  }
  return configs;
}

namespace {

/// Sanitize free-form error text for the tab-separated cache format.
std::string sanitize_failure(std::string s) {
  for (char& c : s) {
    if (c == '\t' || c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

/// Pre-resolved metadata for one configuration of one platform, computed
/// once per campaign instead of once per (dataset, config) cell.
struct CellSpec {
  PipelineConfig config;
  std::string feature_step;  // "none" normalised
  std::string classifier;    // "auto" normalised
  std::string params;
  bool default_params = false;
  std::string train_salt;    // "train-<config key>" suffix template
};

std::vector<CellSpec> build_cell_specs(const Platform& platform,
                                       const MeasurementOptions& options) {
  const ControlSurface surface = platform.controls();
  std::vector<CellSpec> cells;
  for (auto& config : enumerate_configs(platform, options)) {
    CellSpec cell;
    cell.feature_step = config.feature_step.empty() ? "none" : config.feature_step;
    cell.classifier = config.classifier.empty() ? "auto" : config.classifier;
    cell.params = config.params.to_string();
    if (const ClassifierGridSpec* spec = surface.find(config.classifier)) {
      cell.default_params = config.params == spec->default_config();
    } else {
      cell.default_params = config.params.empty();
    }
    cell.train_salt = config.key();
    cell.config = std::move(config);
    cells.push_back(std::move(cell));
  }
  return cells;
}

Measurement base_row(const CellSpec& cell, const std::string& dataset_id,
                     const std::string& platform_name) {
  Measurement m;
  m.dataset_id = dataset_id;
  m.platform = platform_name;
  m.feature_step = cell.feature_step;
  m.classifier = cell.classifier;
  m.params = cell.params;
  m.default_params = cell.default_params;
  return m;
}

/// One (dataset, platform) service session: upload once, then train/predict
/// every configuration with retries, guarded by the session's circuit
/// breaker.  Fills `out` with ok/failure/deferred rows and `stats` with the
/// session's telemetry.  The session's rows are journaled as one block by
/// the scheduler after the session completes (the session is the resume
/// unit, so per-cell appends bought no extra crash safety); `journal` is
/// only consulted for the durable cell count passed to the test hook.
void run_session(const Dataset& dataset, const TrainTestSplit& split,
                 const Platform& platform, const std::vector<CellSpec>& cells,
                 const ServiceQuota& quota, const MeasurementOptions& options,
                 MeasurementTable* out, PlatformCampaignStats* stats,
                 const CellJournal* journal, TraceTrack* trace) {
  const CampaignOptions& campaign = options.campaign;
  const std::uint64_t session_seed =
      derive_seed(options.seed, "campaign-" + platform.name() + "-" + dataset.meta().id);
  MlaasService service(platform, quota, session_seed);
  RetryingClient client(service, campaign.retry_policy(session_seed));
  CircuitBreaker breaker(campaign.breaker);
  if (trace != nullptr) {
    // Every event in this session lands on the session's own single-owner
    // track, timestamped off the session's simulated clock (which starts at
    // zero), so the track's bytes depend only on (options, dataset,
    // platform) — never on which worker ran it.
    service.set_trace(trace);
    client.set_trace(trace);
    breaker.set_listener([trace, name = platform.name()](const char* transition,
                                                         double at) {
      trace->instant("breaker", transition, at, {{"platform", name}});
    });
  }

  const auto finish_cell = [&](Measurement m) {
    stats->count(m);
    out->add(std::move(m));
    // The hook reports the durable cell count (cells whose session block has
    // reached disk): a hook that aborts the campaign (crash-injection tests)
    // can rely on exactly that many cells surviving.
    if (campaign.after_cell_hook) {
      campaign.after_cell_hook(journal != nullptr ? journal->cells_journaled() : 0);
    }
  };

  stats->cells_total += cells.size();
  std::string dataset_handle;
  const ServiceStatus uploaded = client.upload(split.train, &dataset_handle);

  // Every cell trains on the session's one uploaded split (the service's
  // stored Dataset copy, address-stable until delete_dataset), so a
  // session-scoped TrainContext lets the whole cell loop share one presort /
  // norms build per distinct training matrix.  Feature-step cells transform
  // into temporaries; the context's content-hash guard keeps a reused
  // allocation from ever serving stale state.  Data-only reuse: no
  // admission, clock or fault-RNG effect, so every measured byte is
  // identical to a fit without the context (measure_one installs none).
  TrainContext train_context;
  const ScopedTrainContext train_scope(&train_context);

  for (const CellSpec& cell : cells) {
    Measurement m = base_row(cell, dataset.meta().id, platform.name());
    switch (breaker.admit(service.now())) {
      case CircuitBreaker::Decision::kDefer:
        m.ok = false;
        m.failure = kDeferredStatus;
        finish_cell(std::move(m));
        continue;
      case CircuitBreaker::Decision::kWait:
      case CircuitBreaker::Decision::kProbe:
        // Half-open: sleep out whatever is left of the cooldown (zero when
        // it already expired), then send this cell as the probe that decides
        // whether the platform has recovered.
        service.advance_clock(breaker.probe_wait_seconds(service.now()));
        break;
      case CircuitBreaker::Decision::kProceed:
        break;
    }
    if (uploaded != ServiceStatus::kOk) {
      m.ok = false;
      m.failure = "upload:" + to_string(uploaded);
    } else {
      std::string model_handle;
      double train_cpu = 0.0;
      const std::uint64_t train_seed = derive_seed(
          options.seed, "train-" + dataset.meta().id + "-" + cell.train_salt);
      const ServiceStatus trained = client.train(dataset_handle, cell.config,
                                                 &model_handle, train_seed, &train_cpu);
      if (trained == ServiceStatus::kBadRequest) {
        // Config outside this platform's surface: skipped, exactly as the
        // direct runner drops std::invalid_argument configs.
        ++stats->cells_rejected;
        continue;
      }
      m.train_seconds = train_cpu;
      if (trained != ServiceStatus::kOk) {
        m.ok = false;
        m.failure = "train:" + to_string(trained);
        if (trained == ServiceStatus::kServerError) {
          m.failure += sanitize_failure(" (" + service.last_error() + ")");
        }
      } else {
        std::vector<int> labels;
        double predict_cpu = 0.0;
        const ServiceStatus predicted =
            client.predict(model_handle, split.test.x(), &labels, &predict_cpu);
        m.predict_seconds = predict_cpu;
        // The model is single-use: release its handle whether or not the
        // predict succeeded, so a campaign session holds at most one live
        // model instead of growing `models_` by one per cell.
        service.delete_model(model_handle);
        if (predicted != ServiceStatus::kOk) {
          m.ok = false;
          m.failure = "predict:" + to_string(predicted);
        } else {
          m.test = compute_metrics(split.test.y(), labels);
          const std::size_t sig = std::min(kLabelSignatureSize, labels.size());
          m.label_signature.reserve(sig);
          for (std::size_t i = 0; i < sig; ++i) {
            m.label_signature += labels[i] == 1 ? '1' : '0';
          }
        }
      }
    }
    if (m.ok) {
      breaker.record_success(service.now());
    } else {
      breaker.record_failure(service.now());
    }
    finish_cell(std::move(m));
  }

  // Session teardown: the uploaded training set is dead once the last cell
  // has trained.  Without this, `datasets_` grows by one dataset copy per
  // (dataset, platform) session for the life of the campaign.
  if (uploaded == ServiceStatus::kOk) service.delete_dataset(dataset_handle);

  stats->service.merge(service.stats());
  stats->retries += client.total_retries();
  stats->backoff_seconds += client.total_backoff_seconds();
  stats->simulated_seconds += service.now();
  stats->breaker_trips += breaker.trips();
  stats->outage_seconds += quota.fault_plan.outage_seconds(0.0, service.now());

  if (trace != nullptr) {
    // Session-level span last: it covers the whole simulated timeline of the
    // session, [0, service.now()).  train_seconds (wall CPU time) stays out
    // of the trace — it is the one per-cell number that differs between
    // reruns.
    trace->span("campaign", "session", 0.0, service.now(),
                {{"dataset", dataset.meta().id},
                 {"platform", platform.name()},
                 {"cells", std::to_string(cells.size())}});
  }
}

/// Serializes completed session blocks into the journal in canonical session
/// order (dataset-major, platform-minor) no matter which worker finishes
/// first, so the journal bytes are identical for every thread count,
/// schedule and steal order.  A session completed out of order is buffered
/// until its predecessors flush; on a crash such buffered sessions simply
/// re-run — the resume unit is unchanged.
class OrderedJournalWriter {
 public:
  OrderedJournalWriter(CellJournal* journal, std::size_t n_sessions,
                       std::function<void(std::size_t)> flush_session)
      : journal_(journal),
        state_(n_sessions, State::kRunning),
        flush_session_(std::move(flush_session)) {}

  /// Mark session `s` finished.  `write` is false for sessions restored from
  /// a previous journal (their bytes are already on disk).
  void complete(std::size_t s, bool write) {
    std::lock_guard lock(mu_);
    state_[s] = write ? State::kFlushable : State::kSkip;
    while (next_ < state_.size() && state_[next_] != State::kRunning) {
      if (state_[next_] == State::kFlushable && journal_ != nullptr) {
        flush_session_(next_);
      }
      ++next_;
    }
  }

 private:
  enum class State { kRunning, kFlushable, kSkip };

  CellJournal* journal_;
  std::vector<State> state_;
  std::function<void(std::size_t)> flush_session_;
  std::mutex mu_;
  std::size_t next_ = 0;
};

}  // namespace

std::optional<Measurement> measure_one(const Dataset& dataset, const Platform& platform,
                                       const PipelineConfig& config,
                                       const MeasurementOptions& options) {
  // The split depends only on (study seed, dataset), so every platform and
  // configuration sees the same train/test partition (§3.1).
  const auto split = train_test_split(
      dataset, options.test_fraction,
      derive_seed(options.seed, "split-" + dataset.meta().id), /*stratified=*/true);
  Measurement m;
  m.dataset_id = dataset.meta().id;
  m.platform = platform.name();
  m.feature_step = config.feature_step.empty() ? "none" : config.feature_step;
  m.classifier = config.classifier.empty() ? "auto" : config.classifier;
  m.params = config.params.to_string();
  const ControlSurface surface = platform.controls();
  if (const ClassifierGridSpec* spec = surface.find(config.classifier)) {
    m.default_params = config.params == spec->default_config();
  } else {
    m.default_params = config.params.empty();
  }
  try {
    // Per-thread CPU time, not wall time: the measured training cost must
    // not depend on how oversubscribed the pool is (§8 dimension).
    const double t0 = thread_cpu_seconds();
    const auto model = platform.train(
        split.train, config,
        derive_seed(options.seed, "train-" + dataset.meta().id + "-" + config.key()));
    m.train_seconds = thread_cpu_seconds() - t0;
    const double p0 = thread_cpu_seconds();
    const auto predictions = model->predict(split.test.x());
    m.predict_seconds = thread_cpu_seconds() - p0;
    m.test = compute_metrics(split.test.y(), predictions);
    const std::size_t sig = std::min(kLabelSignatureSize, predictions.size());
    m.label_signature.reserve(sig);
    for (std::size_t i = 0; i < sig; ++i) {
      m.label_signature += predictions[i] == 1 ? '1' : '0';
    }
  } catch (const std::invalid_argument&) {
    return std::nullopt;  // config outside this platform's surface
  } catch (const std::exception& e) {
    // Any other platform error becomes a failure row instead of unwinding
    // through ThreadPool::parallel_for and killing the whole campaign.
    m.ok = false;
    m.failure = sanitize_failure(std::string("exception:") + e.what());
    m.test = {};
    m.label_signature.clear();
  }
  return m;
}

CampaignResult run_campaign(const std::vector<Dataset>& corpus,
                            const std::vector<PlatformPtr>& platforms,
                            const MeasurementOptions& options) {
  if (options.threads < 0) {
    throw std::invalid_argument("run_campaign: threads must be >= 0 (0 = hardware "
                                "concurrency), got " + std::to_string(options.threads));
  }
  // Pre-enumerate configs and their row metadata once per platform, and
  // resolve quota profiles eagerly: an unknown profile or chaos profile must
  // throw here, in the caller's thread, not inside a pool worker.
  std::vector<std::vector<CellSpec>> cells;
  std::vector<ServiceQuota> quotas;
  cells.reserve(platforms.size());
  quotas.reserve(platforms.size());
  for (const auto& p : platforms) {
    cells.push_back(build_cell_specs(*p, options));
    quotas.push_back(options.campaign.quota_for(p->name(), options.seed));
  }

  // Write-ahead journal: restore completed sessions from a previous crashed
  // run (fingerprint must match), then append every session finished here.
  std::unique_ptr<CellJournal> journal;
  CellJournal::Restored restored;
  if (!options.campaign.journal_path.empty()) {
    const std::string fingerprint = measurement_fingerprint(corpus, platforms, options);
    bool fresh = true;
    if (options.campaign.resume) {
      if (auto loaded = CellJournal::load(options.campaign.journal_path, fingerprint)) {
        restored = std::move(*loaded);
        fresh = false;
      }
    }
    journal = std::make_unique<CellJournal>(options.campaign.journal_path, fingerprint,
                                            fresh);
    if (options.verbose && restored.cells > 0) {
      std::cerr << "[measure] journal: restoring " << restored.cells << " cells from "
                << restored.sessions.size() << " completed sessions ("
                << restored.discarded << " partial-session cells re-run)\n";
    }
  }

  // The campaign is flattened into one work item per (dataset, platform)
  // session — the finest grain that stays deterministic, since every session
  // owns an independently seeded service stream.  Results land in
  // preallocated per-session slots and are assembled in canonical order
  // below, so the table is byte-identical for every thread count, schedule
  // and steal order.
  const std::size_t n_platforms = platforms.size();
  const std::size_t n_sessions = corpus.size() * n_platforms;
  std::vector<MeasurementTable> slots(n_sessions);
  std::vector<PlatformCampaignStats> slot_stats(n_sessions);
  // Traced campaigns get one standalone single-owner track per session slot,
  // filled by whichever worker runs the session and adopted into the Trace
  // in canonical session order after the pool joins — the same assembly
  // discipline as the measurement slots and the ordered journal.
  std::vector<std::optional<TraceTrack>> session_tracks(
      options.trace ? n_sessions : 0);

  // The per-dataset split depends only on (study seed, dataset) — §3.1.
  // Sessions of the same dataset on different workers share one memoized
  // split behind a call_once; the last session of a dataset releases it so
  // peak memory stays at O(threads) splits, not O(corpus).
  std::vector<std::once_flag> split_once(corpus.size());
  std::vector<std::optional<TrainTestSplit>> splits(corpus.size());
  std::vector<std::atomic<std::size_t>> dataset_sessions_left(corpus.size());
  for (auto& left : dataset_sessions_left) left.store(n_platforms);
  auto split_for = [&](std::size_t d) -> const TrainTestSplit& {
    std::call_once(split_once[d], [&] {
      splits[d].emplace(train_test_split(
          corpus[d], options.test_fraction,
          derive_seed(options.seed, "split-" + corpus[d].meta().id),
          /*stratified=*/true));
    });
    return *splits[d];
  };

  OrderedJournalWriter writer(journal.get(), n_sessions, [&](std::size_t s) {
    journal->append_session_block(corpus[s / n_platforms].meta().id,
                                  platforms[s % n_platforms]->name(),
                                  slots[s].rows());
  });

  std::atomic<std::size_t> datasets_done{0};
  auto run_session_slot = [&](std::size_t s) {
    const std::size_t d = s / n_platforms;
    const std::size_t p = s % n_platforms;
    const Dataset& dataset = corpus[d];
    PlatformCampaignStats& pstats = slot_stats[s];
    const std::string key =
        CellJournal::session_key(dataset.meta().id, platforms[p]->name());
    TraceTrack* track = nullptr;
    if (options.trace) {
      session_tracks[s].emplace("session:" + dataset.meta().id + "|" +
                                platforms[p]->name());
      track = &*session_tracks[s];
    }
    if (auto it = restored.sessions.find(key); it != restored.sessions.end()) {
      // Session completed before the crash: restore its rows verbatim.
      // Service/request telemetry for restored sessions was lost with the
      // crashed process; cells_restored records how much work was saved.
      pstats.cells_total += cells[p].size();
      pstats.cells_restored += it->second.size();
      pstats.cells_rejected += cells[p].size() - it->second.size();
      for (const auto& m : it->second) {
        pstats.count(m);
        slots[s].add(m);
      }
      if (track != nullptr) {
        // The crashed process took the session's event stream with it; the
        // restoration itself is the only (deterministic) fact left to record.
        track->instant("campaign", "session-restored", 0.0,
                       {{"dataset", dataset.meta().id},
                        {"platform", platforms[p]->name()},
                        {"cells", std::to_string(it->second.size())}});
      }
      writer.complete(s, /*write=*/false);  // its bytes are already on disk
    } else {
      run_session(dataset, split_for(d), *platforms[p], cells[p], quotas[p], options,
                  &slots[s], &pstats, journal.get(), track);
      writer.complete(s, /*write=*/journal != nullptr);
    }
    if (dataset_sessions_left[d].fetch_sub(1) == 1) {
      splits[d].reset();  // last session of this dataset: free the split copy
      if (options.verbose) {
        std::cerr << "[measure] " << dataset.meta().id << " done ("
                  << (datasets_done.fetch_add(1) + 1) << "/" << corpus.size() << ")\n";
      }
    }
  };

  ThreadPool pool(options.threads == 0 ? 0 : static_cast<std::size_t>(options.threads));
  ParallelStats dispatch;
  if (options.schedule == Schedule::kStatic) {
    // The pre-scheduler granularity: one work item per dataset, its
    // platform sessions run back to back.  Kept for A/B benchmarks — one
    // slow dataset serializes its whole platform sweep on one worker.
    pool.parallel_for(
        corpus.size(),
        [&](std::size_t d) {
          for (std::size_t p = 0; p < n_platforms; ++p) {
            run_session_slot(d * n_platforms + p);
          }
        },
        &dispatch);
  } else {
    // Dynamic: sessions dispatched longest-estimated-first over an atomic
    // ticket.  The estimate (configs x samples) orders the big sessions
    // ahead of the tail so no worker is left holding one at the end.
    std::vector<std::size_t> order(n_sessions);
    std::iota(order.begin(), order.end(), 0);
    std::vector<std::uint64_t> estimate(n_sessions);
    for (std::size_t s = 0; s < n_sessions; ++s) {
      estimate[s] = static_cast<std::uint64_t>(cells[s % n_platforms].size()) *
                    static_cast<std::uint64_t>(corpus[s / n_platforms].n_samples());
    }
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return estimate[a] > estimate[b];
    });
    pool.parallel_for_dynamic(
        n_sessions, [&](std::size_t k) { run_session_slot(order[k]); }, &dispatch);
  }

  CampaignResult result;
  for (const auto& t : slots) result.table.append(t);
  result.report.platforms.resize(n_platforms);
  for (std::size_t p = 0; p < n_platforms; ++p) {
    result.report.platforms[p].platform = platforms[p]->name();
    for (std::size_t d = 0; d < corpus.size(); ++d) {
      result.report.platforms[p].merge(slot_stats[d * n_platforms + p]);
    }
  }
  result.report.scheduler.schedule = to_string(options.schedule);
  result.report.scheduler.workers = pool.size();
  result.report.scheduler.sessions = n_sessions;
  result.report.scheduler.sessions_stolen = dispatch.stolen;
  result.report.scheduler.makespan_seconds = dispatch.makespan_seconds;
  result.report.scheduler.worker_busy_seconds = std::move(dispatch.busy_seconds);
  if (options.trace) {
    auto trace = std::make_shared<Trace>();
    for (auto& t : session_tracks) {
      if (t.has_value()) trace->adopt(std::move(*t));
    }
    result.report.trace_summary = trace->summary();
    result.trace = std::move(trace);
  }
  return result;
}

namespace {

/// A knob value as fingerprint text: the default 6 significant digits when
/// they read back as `v` (the bytes of every existing fingerprint), else 17,
/// so two values that differ never share a fingerprint.
std::string fingerprint_number(double v) {
  std::ostringstream os;
  os << v;
  if (std::strtod(os.str().c_str(), nullptr) == v) return os.str();
  os.str("");
  os.precision(17);
  os << v;
  return os.str();
}

/// Every dataset's id, shape, feature bits and labels, chained in corpus
/// order: two corpora of one size never share a fingerprint.
std::uint64_t corpus_digest(const std::vector<Dataset>& corpus) {
  std::uint64_t h = 0;
  for (const Dataset& d : corpus) {
    const Matrix& x = d.x();
    const std::uint64_t shape = x.rows() * 0x9e3779b97f4a7c15ull + x.cols();
    h = content_hash(derive_seed(h, d.meta().id) ^ shape, x.data());
    h = content_hash(h, std::span<const int>(d.y()));
  }
  return h;
}

}  // namespace

std::string measurement_fingerprint(const std::vector<Dataset>& corpus,
                                    const std::vector<PlatformPtr>& platforms,
                                    const MeasurementOptions& options) {
  std::ostringstream os;
  os << "mlaas-measurements-v2 corpus=" << corpus.size() << " platforms=";
  for (std::size_t i = 0; i < platforms.size(); ++i) {
    if (i > 0) os << ',';
    os << platforms[i]->name();
  }
  os << " seed=" << options.seed << " scale=" << fingerprint_number(options.scale)
     << " para=" << options.max_para_configs << " joint=" << options.joint_sample
     << " test_fraction=" << fingerprint_number(options.test_fraction)
     << " fault=" << fingerprint_number(options.campaign.fault_rate)
     << " profile=" << options.campaign.quota_profile
     << " retries=" << options.campaign.retry_budget;
  // Resilience knobs that change measured rows invalidate caches and
  // journals too.  Non-default values append so that fingerprints from
  // older caches stay valid when the new features are off.
  if (options.campaign.chaos_profile != "none") {
    os << " chaos=" << options.campaign.chaos_profile;
  }
  if (options.campaign.breaker.enabled) {
    os << " breaker=" << options.campaign.breaker.failure_threshold << '/'
       << fingerprint_number(options.campaign.breaker.cooldown_seconds) << '/'
       << options.campaign.breaker.max_probes;
  }
  if (options.campaign.jitter) {
    os << " jitter=1";
  }
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(corpus_digest(corpus)));
  os << " data=" << digest;
  return os.str();
}

MeasurementTable run_or_load(const std::vector<Dataset>& corpus,
                             const std::vector<PlatformPtr>& platforms,
                             const MeasurementOptions& options_in,
                             const std::string& cache_path) {
  // Cached campaigns journal beside their cache by default, so a crashed
  // run resumes on the next invocation instead of starting over.
  MeasurementOptions options = options_in;
  if (options.campaign.journal_path.empty()) {
    options.campaign.journal_path = cache_path + ".journal";
  }
  const std::string expected = measurement_fingerprint(corpus, platforms, options);
  {
    std::ifstream probe(cache_path);
    if (probe.good()) {
      probe.close();
      try {
        std::string found;
        MeasurementTable table = MeasurementTable::load_csv(cache_path, &found);
        // An empty table for a non-empty corpus means the cache was
        // truncated right after its header: the fingerprint alone is not
        // proof of a complete file.
        const bool plausible = table.size() > 0 || corpus.empty() || platforms.empty();
        if (found == expected && plausible) return table;
        if (options.verbose) {
          std::cerr << "[measure] cache " << cache_path
                    << " has a stale fingerprint; re-running the campaign\n";
        }
      } catch (const std::exception& e) {
        // A truncated or corrupt cache must not kill the campaign: re-run.
        if (options.verbose) {
          std::cerr << "[measure] discarding unreadable cache: " << e.what() << "\n";
        }
      }
    }
  }
  CampaignResult result = run_campaign(corpus, platforms, options);
  result.table.save_csv(cache_path, expected);
  // The cache now holds everything the journal protected; a stale journal
  // left behind would only grow across campaigns.
  CellJournal::remove(options.campaign.journal_path);
  try {
    result.report.save_tsv(cache_path + ".campaign.tsv");
    result.report.save_json(cache_path + ".campaign.json");
  } catch (const std::exception& e) {
    std::cerr << "[measure] could not write campaign report: " << e.what() << "\n";
  }
  return result.table;
}

std::string default_cache_path(std::uint64_t seed, double scale) {
  std::ostringstream os;
  os << "mlaas_measurements_seed" << seed << "_scale" << fingerprint_number(scale)
     << ".tsv";
  return os.str();
}

}  // namespace mlaas
