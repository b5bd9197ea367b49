#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>

#include "core/study.h"
#include "data/corpus.h"
#include "data/split.h"
#include "digest.h"
#include "eval/measurement.h"
#include "platform/all_platforms.h"
#include "platform/serving.h"
#include "spans.h"
#include "timed_platform.h"
#include "util/rng.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Sizes.  The full sizes keep one iteration at a few seconds on a 4-core
// host so a run takes several iterations and reports their median; the
// smoke sizes finish in seconds and exercise the same checks.

struct CampaignSize {
  std::size_t datasets;  // the largest of the 119-dataset corpus
  double grid_scale;     // MeasurementOptions::scale
};
constexpr CampaignSize kCampaignFull{4, 0.25};
constexpr CampaignSize kCampaignSmoke{3, 0.1};

constexpr std::size_t kServeRequestsFull = 40000;
constexpr std::size_t kServeRequestsSmoke = 2000;
// The library's own serving traffic (ServingWorkloadOptions: 50 arrivals
// per simulated second, 1-8 rows per request, Zipf tenant weights): most
// batches flush at the linger deadline with one or a few requests in them.
constexpr double kServeArrivalsPerSecond = 50.0;
constexpr std::size_t kServeMaxRowsPerRequest = 8;

constexpr double kReproduceScaleFull = 0.25;  // StudyOptions::scale of the quick study
constexpr double kReproduceScaleSmoke = 0.1;

void require(bool condition, const std::string& what) {
  if (!condition) throw std::runtime_error(what);
}

void add_scheduler_facts(const mlaas::CampaignReport& report, Facts& facts) {
  const auto& s = report.scheduler;
  const double busy = s.busy_seconds();
  facts["sched.makespan_s"] = s.makespan_seconds;
  facts["sched.busy_s"] = busy;
  facts["sched.idle_s"] = static_cast<double>(s.workers) * s.makespan_seconds - busy;
  facts["sched.imbalance"] = s.imbalance();
  const mlaas::PlatformCampaignStats totals = report.totals();
  facts["service.requests"] = static_cast<double>(totals.service.requests);
  facts["service.retries"] = static_cast<double>(totals.retries);
  facts["service.rate_limited"] = static_cast<double>(totals.service.rate_limited);
  facts["service.sim_h"] = totals.simulated_seconds / 3600.0;
}

/// Facts of one run_campaign call: scheduler and service telemetry, the
/// journal size, and the table's own CPU ledger for the reconciliation.
Facts campaign_facts(const mlaas::CampaignResult& result, const std::string& journal) {
  Facts facts;
  add_scheduler_facts(result.report, facts);
  facts["journal.bytes"] = static_cast<double>(fs::file_size(journal));
  double ledger = 0.0;
  std::size_t ok = 0;
  for (const auto& m : result.table.rows()) {
    ledger += m.train_seconds + m.predict_seconds;
    if (m.ok) ++ok;
  }
  facts["ledger.cpu_s"] = ledger;
  facts["fit.useful"] = static_cast<double>(ok);
  return facts;
}

/// The campaign's own settings.  Its seed stays the study default: it picks
/// the sampled parameter grid, whose cost differs by several times between
/// samples, so only the corpus (the input) varies with the benchmark seed.
mlaas::MeasurementOptions campaign_options(double grid_scale, std::size_t threads,
                                           const std::string& journal) {
  mlaas::MeasurementOptions m;
  m.scale = grid_scale;
  m.threads = static_cast<int>(threads);
  m.schedule = mlaas::Schedule::kDynamic;
  m.verbose = false;
  m.campaign.journal_path = journal;
  m.campaign.resume = false;  // a fresh write-ahead journal every campaign
  return m;
}

std::size_t count_failed(const mlaas::MeasurementTable& table) {
  return static_cast<std::size_t>(std::count_if(
      table.rows().begin(), table.rows().end(), [](const auto& m) { return !m.ok; }));
}

/// Indices of the `n` largest datasets (samples x features, corpus order
/// among ties).  About a third of every corpus is generated at both size
/// caps, so these share one shape for every seed and the workload's cost
/// does not swing with the sizes a seed happened to draw.
std::vector<std::size_t> largest(const std::vector<mlaas::Dataset>& corpus, std::size_t n) {
  std::vector<std::size_t> order(corpus.size());
  std::iota(order.begin(), order.end(), 0);
  const auto cost = [&](std::size_t i) { return corpus[i].n_samples() * corpus[i].n_features(); };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return cost(a) > cost(b); });
  order.resize(std::min(n, corpus.size()));
  return order;
}

/// Find `config`'s row of `dataset_id` on `platform` in a campaign table.
const mlaas::Measurement* find_row(const mlaas::MeasurementTable& table,
                                   const std::string& dataset_id, const std::string& platform,
                                   const mlaas::PipelineConfig& config) {
  const std::string feat = config.feature_step.empty() ? "none" : config.feature_step;
  const std::string clf = config.classifier.empty() ? "auto" : config.classifier;
  const std::string params = config.params.to_string();
  for (const auto& m : table.rows()) {
    if (m.dataset_id == dataset_id && m.platform == platform && m.feature_step == feat &&
        m.classifier == clf && m.params == params) {
      return &m;
    }
  }
  return nullptr;
}

/// Re-measure `checks` seeded cells directly with measure_one (no service
/// envelope) and require the campaign's row to match bit for bit.
void spot_check_cells(const mlaas::MeasurementTable& table,
                      const std::vector<mlaas::Dataset>& corpus,
                      const std::vector<mlaas::PlatformPtr>& roster,
                      const mlaas::MeasurementOptions& options, std::uint64_t seed,
                      std::size_t checks) {
  mlaas::Rng rng(mlaas::derive_seed(seed, "perfbench-verify"));
  for (std::size_t k = 0; k < checks; ++k) {
    const mlaas::Dataset& dataset = corpus[rng.index(corpus.size())];
    const mlaas::Platform& platform = *roster[rng.index(roster.size())];
    const auto configs = mlaas::enumerate_configs(platform, options);
    const mlaas::PipelineConfig& config = configs[rng.index(configs.size())];
    const mlaas::Measurement* row = find_row(table, dataset.meta().id, platform.name(), config);
    const auto direct = mlaas::measure_one(dataset, platform, config, options);
    require(row != nullptr && direct.has_value(),
            "verify: no campaign row for " + dataset.meta().id + " " + config.key());
    require(row->ok && direct->ok && row->label_signature == direct->label_signature &&
                row->test.f_score == direct->test.f_score &&
                row->test.accuracy == direct->test.accuracy,
            "verify: campaign cell " + dataset.meta().id + " " + platform.name() + " " +
                config.key() + " differs from a direct measurement");
  }
}

// ---------------------------------------------------------------------------
// campaign

class CampaignWorkload final : public Workload {
 public:
  explicit CampaignWorkload(const RunConfig& config)
      : config_(config),
        size_(config.smoke ? kCampaignSmoke : kCampaignFull),
        journal_((fs::path(config.workdir) / "campaign.journal").string()),
        plain_(mlaas::make_all_platforms()),
        timed_(timed_roster(mlaas::make_all_platforms())) {}

  Facts setup(bool) override {
    ScopedSpan span("data.corpus");
    mlaas::CorpusOptions c;
    c.seed = config_.seed;
    std::vector<mlaas::Dataset> full = mlaas::build_corpus(c);
    corpus_.clear();
    for (std::size_t i : largest(full, size_.datasets)) {
      corpus_.push_back(std::move(full[i]));
    }
    return {};
  }

  void run(bool traced) override {
    const auto options = campaign_options(size_.grid_scale, config_.threads, journal_);
    ScopedSpan span("campaign");
    set_root(span.id());
    last_ = mlaas::run_campaign(corpus_, traced ? timed_ : plain_, options);
    set_root(0);
  }

  IterationResult collect(bool) override {
    IterationResult it;
    it.digest = campaign_digest(last_);
    it.attempted = last_.table.size();
    it.failed = count_failed(last_.table);
    it.ok = it.attempted - it.failed;
    it.facts = campaign_facts(last_, journal_);
    return it;
  }

  void verify() override {
    spot_check_cells(last_.table, corpus_, plain_,
                     campaign_options(size_.grid_scale, 1, ""), config_.seed, 3);
  }

  void report(std::ostream& out, const std::vector<IterationResult>& iterations,
              double median_wall_s, double median_cpu_s) const override {
    const auto& last = iterations.back();
    out << "  cells_per_s     " << static_cast<double>(last.ok) / median_wall_s << " 1/s ("
        << last.ok << " ok cells, " << corpus_.size() << " datasets x 7 platforms, grid scale "
        << size_.grid_scale << ")\n";
    mix_check(out, median_cpu_s);
  }

 private:
  /// The sampled campaign's CPU mix beside the full campaign's, so a reader
  /// can judge whether the reduced workload is representative.
  void mix_check(std::ostream& out, double process_cpu_s) const {
    double fit = 0.0;
    double predict = 0.0;
    std::map<std::string, double> cost;  // "<platform>/<classifier> <stage>"
    for (const auto& m : last_.table.rows()) {
      fit += m.train_seconds;
      predict += m.predict_seconds;
      cost[m.platform + "/" + m.classifier + " fit"] += m.train_seconds;
      cost[m.platform + "/" + m.classifier + " predict"] += m.predict_seconds;
    }
    const double total = std::max(process_cpu_s, fit + predict);
    const auto pct = [&](double v) { return 100.0 * v / total; };
    out << std::fixed << std::setprecision(1);
    out << "  mix check (share of process CPU; full-campaign reference from ROADMAP"
           " \"Measured baseline\")\n";
    out << "    fit   " << pct(fit) << "%   (full campaign ~85%)\n";
    out << "    predict " << pct(predict) << "% (full campaign ~15%)\n";
    out << "    other " << pct(total - fit - predict) << "%   (full campaign <1%)\n";
    std::vector<std::pair<double, std::string>> ranked;
    for (const auto& [name, v] : cost) ranked.emplace_back(v, name);
    std::sort(ranked.rbegin(), ranked.rend());
    out << "    top five here:";
    for (std::size_t i = 0; i < std::min<std::size_t>(5, ranked.size()); ++i) {
      out << (i ? ", " : " ") << ranked[i].second << " " << pct(ranked[i].first) << "%";
    }
    out << "\n    full campaign: Local/mlp fit 21%, boosted_trees fit 21%, Local/knn predict"
           " 14%, bagging fit ~11%, random_forest fit ~10%\n";
    out << std::defaultfloat << std::setprecision(6);
  }

  RunConfig config_;
  CampaignSize size_;
  std::string journal_;
  std::vector<mlaas::PlatformPtr> plain_;
  std::vector<mlaas::PlatformPtr> timed_;
  std::vector<mlaas::Dataset> corpus_;
  mlaas::CampaignResult last_;
};

// ---------------------------------------------------------------------------
// serve

/// The tenants, in Zipf rank order (tenant i carries weight 1/(i+1)): the
/// models that are heaviest to predict, plus one black-box platform.
struct TenantModel {
  const char* platform;
  const char* classifier;  // "" = the platform's default pipeline
};
constexpr TenantModel kTenantModels[] = {
    {"Local", "knn"},           {"Local", "random_forest"}, {"Local", "boosted_trees"},
    {"Microsoft", "decision_jungle"}, {"BigML", "bagging"}, {"Local", "mlp"},
    {"ABM", ""},
};
constexpr std::size_t kTenants = std::size(kTenantModels);

struct Tenant {
  std::string name;
  std::string platform;
  mlaas::PipelineConfig config;
  std::uint64_t train_seed = 0;
  mlaas::TrainTestSplit split;
};

struct Request {
  double offset_s = 0.0;  // arrival, simulated seconds after the iteration starts
  std::size_t tenant = 0;
  mlaas::Matrix rows;
};

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(const RunConfig& config)
      : config_(config),
        requests_(config.smoke ? kServeRequestsSmoke : kServeRequestsFull),
        plain_(mlaas::make_all_platforms()),
        timed_(timed_roster(mlaas::make_all_platforms())) {}

  Facts setup(bool traced) override {
    build_tenants();
    generate_requests();
    open_router(traced);
    Facts facts;
    facts["ledger.cpu_s"] = at_open_[traced].cpu_s;
    facts["fit.useful"] = static_cast<double>(kTenants);
    return facts;
  }

  void run(bool traced) override {
    mlaas::QueryRouter& router = *routers_[traced];
    const auto& sessions = sessions_[traced];
    tickets_.assign(requests_.size(), std::nullopt);
    for (std::size_t k = 0; k < requests_.size(); ++k) {
      const Request& r = requests_[k];
      {
        ScopedSpan span("router.advance");
        router.advance_to(r.offset_s);
      }
      ScopedSpan span("router.submit");
      tickets_[k] = router.submit(sessions[r.tenant], r.rows);
      if (span.active() && tickets_[k]) span.set_key(std::to_string(*tickets_[k]));
    }
    ScopedSpan span("router.drain");
    router.drain();
  }

  /// Reads the iteration's results, then retires its router and opens a
  /// fresh one for the next iteration: every iteration starts from the same
  /// state (and memory does not grow with the number of iterations).
  IterationResult collect(bool traced) override {
    const mlaas::QueryRouter& router = *routers_[traced];
    IterationResult it;
    Digest labels;
    std::vector<double> latency_ms;
    latency_ms.reserve(tickets_.size());
    for (const auto& ticket : tickets_) {
      ++it.attempted;
      if (!ticket || !router.result(*ticket).ok) {
        ++it.failed;
        labels.add(std::string("failed"));
        continue;
      }
      const mlaas::QueryResult& q = router.result(*ticket);
      labels.add(q.labels);
      latency_ms.push_back((q.complete_seconds - q.submit_seconds) * 1e3);
    }
    it.ok = it.attempted - it.failed;
    it.digest = labels.add(serving_report_digest(router.report())).hex();

    // Router counters less those of the set-up's training.
    const mlaas::ServingStats s = router.stats();
    const double lookups = static_cast<double>(s.cache_hits + s.cache_misses - kTenants);
    it.facts["router.batches"] = static_cast<double>(s.batches);
    it.facts["router.mean_batch_rows"] = s.mean_batch_rows();
    it.facts["router.hit_ratio"] =
        lookups > 0 ? static_cast<double>(s.cache_hits) / lookups : 0.0;
    it.facts["router.trainings"] = static_cast<double>(s.trainings);
    it.facts["router.sim_p50_ms"] = percentile(latency_ms, 0.50);
    it.facts["router.sim_p99_ms"] = percentile(std::move(latency_ms), 0.99);
    const ServiceTotals now = service_totals(router);
    it.facts["service.requests"] = now.requests - at_open_[traced].requests;
    it.facts["service.retries"] = static_cast<double>(s.retries);
    it.facts["service.rate_limited"] = static_cast<double>(s.rate_limited);
    it.facts["service.sim_h"] = router.now() / 3600.0;
    it.facts["ledger.cpu_s"] = now.cpu_s - at_open_[traced].cpu_s;

    retired_ = std::move(routers_[traced]);
    open_router(traced);
    return it;
  }

  /// Labels served through the router equal a directly trained model's
  /// predictions for the same rows (three requests per tenant).
  void verify() override {
    std::vector<std::size_t> checked(kTenants, 0);
    std::vector<mlaas::TrainedModelPtr> direct(kTenants);
    for (std::size_t k = 0; k < requests_.size(); ++k) {
      const Request& r = requests_[k];
      if (checked[r.tenant] == 3 || !tickets_[k]) continue;
      const Tenant& t = tenants_[r.tenant];
      if (!direct[r.tenant]) {
        direct[r.tenant] = mlaas::make_platform(t.platform)->train(t.split.train, t.config,
                                                                  t.train_seed);
      }
      require(retired_->result(*tickets_[k]).labels == direct[r.tenant]->predict(r.rows),
              "verify: router labels for " + t.name + " differ from a direct prediction");
      ++checked[r.tenant];
    }
  }

  void report(std::ostream& out, const std::vector<IterationResult>& iterations,
              double median_wall_s, double) const override {
    const auto& last = iterations.back();
    out << "  requests_per_s  " << static_cast<double>(last.ok) / median_wall_s << " 1/s ("
        << requests_.size() << " requests per iteration, " << kTenants << " tenants)\n";
    out << "  sim_p50_ms      " << last.facts.at("router.sim_p50_ms") << " ms (simulated)\n";
    out << "  sim_p99_ms      " << last.facts.at("router.sim_p99_ms") << " ms (simulated)\n";
    out << "  generator lag   0 s (the open loop runs on the simulated clock)\n";
  }

 private:
  struct ServiceTotals {
    double requests = 0.0;
    double cpu_s = 0.0;  // the library's train + predict CPU accounting
  };

  /// Request and CPU counters summed over the tenants' platform services.
  static ServiceTotals service_totals(const mlaas::QueryRouter& router) {
    ServiceTotals totals;
    std::set<std::string> platforms;
    for (const TenantModel& m : kTenantModels) platforms.insert(m.platform);
    for (const std::string& p : platforms) {
      const mlaas::ServiceStats& stats = router.platform_stats(p);
      totals.requests += static_cast<double>(stats.requests);
      totals.cpu_s += stats.train_cpu_seconds + stats.predict_cpu_seconds;
    }
    return totals;
  }

  /// A router over the plain or the timed roster with every tenant's model
  /// trained and cached.
  void open_router(bool traced) {
    mlaas::ServingOptions options;
    options.model_cache_capacity = kTenants;  // every tenant stays cached
    // "unlimited": no simulated quota, so the open loop never builds a
    // backlog behind a rate limit and the run measures router + predict.
    auto router = std::make_unique<mlaas::QueryRouter>(traced ? timed_ : plain_, "unlimited",
                                                       config_.seed, options);
    auto& sessions = sessions_[traced];
    sessions.clear();
    for (const Tenant& t : tenants_) {
      const auto id = router->open_session(t.name, t.platform, t.split.train, t.config,
                                           t.train_seed);
      require(id.has_value(), "serve: training " + t.name + " failed: " + router->last_error());
      sessions.push_back(*id);
    }
    at_open_[traced] = service_totals(*router);
    routers_[traced] = std::move(router);
  }

  /// Bind each tenant model to one of the largest corpus datasets (ranked by
  /// samples x features), so tenants are corpus-sized for every seed.
  void build_tenants() {
    std::vector<mlaas::Dataset> corpus;
    {
      ScopedSpan span("data.corpus");
      mlaas::CorpusOptions c;
      c.seed = config_.seed;
      corpus = mlaas::build_corpus(c);
    }
    const std::vector<std::size_t> order = largest(corpus, kTenants);
    ScopedSpan span("data.split");
    tenants_.clear();
    for (std::size_t i = 0; i < kTenants; ++i) {
      const mlaas::Dataset& d = corpus[order[i]];
      Tenant t;
      t.platform = kTenantModels[i].platform;
      t.config.classifier = kTenantModels[i].classifier;
      const auto platform = mlaas::make_platform(t.platform);
      if (t.config.classifier.empty()) {
        t.config = platform->baseline_config();
      } else {
        t.config.params = platform->controls().find(t.config.classifier)->default_config();
      }
      t.name = "tenant" + std::to_string(i) + "-" + pair_tag(t.platform, t.config.classifier);
      t.train_seed = mlaas::derive_seed(config_.seed, "perfbench-tenant-" + t.name);
      t.split = mlaas::train_test_split(
          d, 0.3, mlaas::derive_seed(config_.seed, "split-" + d.meta().id), true);
      tenants_.push_back(std::move(t));
    }
  }

  /// Seeded open-loop stream: Poisson arrivals, Zipf tenant draw, 1-8 fresh
  /// rows of the tenant's test split per request.
  void generate_requests() {
    mlaas::Rng rng(mlaas::derive_seed(config_.seed, "perfbench-serve"));
    std::vector<double> cumulative;
    double total = 0.0;
    for (std::size_t i = 0; i < kTenants; ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      cumulative.push_back(total);
    }
    requests_.assign(requests_.size(), Request{});
    double t = 0.0;
    for (Request& r : requests_) {
      t += -std::log(1.0 - rng.uniform()) / kServeArrivalsPerSecond;
      r.offset_s = t;
      const double u = rng.uniform() * total;
      r.tenant = static_cast<std::size_t>(
          std::lower_bound(cumulative.begin(), cumulative.end(), u) - cumulative.begin());
      r.tenant = std::min(r.tenant, kTenants - 1);
      const mlaas::Matrix& source = tenants_[r.tenant].split.test.x();
      const std::size_t n = 1 + rng.index(kServeMaxRowsPerRequest);
      const std::size_t start = rng.index(source.rows());
      r.rows = mlaas::Matrix(n, source.cols());
      for (std::size_t k = 0; k < n; ++k) {
        const auto src = source.row((start + k) % source.rows());
        std::copy(src.begin(), src.end(), r.rows.row(k).begin());
      }
    }
  }

  RunConfig config_;
  std::vector<Request> requests_;
  std::vector<mlaas::PlatformPtr> plain_;
  std::vector<mlaas::PlatformPtr> timed_;
  std::vector<Tenant> tenants_;
  std::unique_ptr<mlaas::QueryRouter> routers_[2];  // plain, timed roster
  std::vector<mlaas::QueryRouter::SessionId> sessions_[2];
  std::unique_ptr<mlaas::QueryRouter> retired_;     // the last collected iteration's
  ServiceTotals at_open_[2];  // each router's counters once its tenants were trained
  std::vector<std::optional<mlaas::QueryRouter::Ticket>> tickets_;
};

// ---------------------------------------------------------------------------
// reproduce

class ReproduceWorkload final : public Workload {
 public:
  explicit ReproduceWorkload(const RunConfig& config)
      : cache_((fs::path(config.workdir) / "reproduce_cache.tsv").string()),
        journal_((fs::path(config.workdir) / "reproduce.journal").string()) {
    // The Study seed stays the default for every benchmark seed: it draws
    // both the corpus and the sampled parameter grid, and the experiments'
    // cost differs by about 1.3x between seeds.  The cache is the input, so
    // this workload's input is the same for every --seed.
    study_.quick = true;
    study_.scale = config.smoke ? kReproduceScaleSmoke : kReproduceScaleFull;
    study_.threads = static_cast<int>(config.threads);
    study_.verbose = false;
    study_.resume = false;
    study_.cache_path_override = cache_;
  }

  /// Run the campaign Study would run and save it as Study's cache.
  Facts setup(bool traced) override {
    std::vector<mlaas::Dataset> corpus;
    {
      ScopedSpan span("data.corpus");
      corpus = mlaas::build_corpus(study_.corpus_options());
    }
    auto roster = mlaas::make_all_platforms();
    if (traced) roster = timed_roster(std::move(roster));
    mlaas::MeasurementOptions options = study_.measurement_options();
    options.campaign.journal_path = journal_;
    std::optional<mlaas::CampaignResult> result;
    {
      ScopedSpan span("campaign");
      set_root(span.id());
      result = mlaas::run_campaign(corpus, roster, options);
      set_root(0);
    }
    {
      ScopedSpan span("cache.save");
      result->table.save_csv(cache_, mlaas::measurement_fingerprint(corpus, roster, options));
    }
    // Study writes these sidecars only when it re-runs the campaign; their
    // absence after an iteration proves the iteration read the cache.
    fs::remove(cache_ + ".campaign.tsv");
    fs::remove(cache_ + ".campaign.json");
    saved_rows_ = result->table.size();
    require(count_failed(result->table) == 0, "reproduce: the cache campaign had failed cells");
    setup_digest_[traced] = campaign_digest(*result);
    require(!traced || setup_digest_[true] == setup_digest_[false],
            "reproduce: the timed roster changed the cache campaign's table");
    return campaign_facts(*result, journal_);
  }

  // The digest of the experiment results is folded in as they are produced
  // (a few ms against seconds of aggregation), so run() keeps no results.
  void run(bool) override {
    mlaas::Study study(study_);
    IterationResult& it = pending_;
    it = {};
    {
      ScopedSpan span("cache.load");
      study.measurements();
    }
    const std::size_t loaded = study.measurements().size() + study.measurement_failures().size();
    require(!fs::exists(cache_ + ".campaign.tsv"),
            "reproduce: Study re-ran the campaign instead of loading the cache");
    require(loaded == saved_rows_, "reproduce: cache row count changed on reload");
    it.facts["cache.rows"] = static_cast<double>(loaded);

    Digest d;
    d.add(setup_digest_[false]);
    const auto experiment = [&](const char* span_name, const auto& call) {
      ++it.attempted;
      try {
        const auto result = [&] {
          ScopedSpan span(span_name);
          return call();
        }();
        add_result(d, result);
      } catch (const std::exception& e) {
        ++it.failed;
        d.add(std::string("failed: ") + e.what());
      }
    };
    experiment("exp.baseline", [&] { return study.baseline(); });
    experiment("exp.optimized", [&] { return study.optimized(); });
    experiment("exp.fig5", [&] { return study.control_improvements_fig5(); });
    for (bool optimized : {false, true}) {
      for (const char* p : {"BigML", "PredictionIO", "Microsoft", "Local"}) {
        experiment("exp.table4", [&] { return study.table4(p, optimized); });
      }
    }
    experiment("exp.fig6", [&] { return study.variation_fig6(); });
    experiment("exp.fig7", [&] { return study.variation_fig7(); });
    experiment("exp.fig8", [&] { return study.subset_curves(); });
    const mlaas::Dataset circle = study.circle_probe();
    const mlaas::Dataset linear = study.linear_probe();
    for (const auto& [p, probe] : {std::pair{"Google", &circle}, std::pair{"Google", &linear},
                                   std::pair{"ABM", &circle}, std::pair{"ABM", &linear},
                                   std::pair{"Amazon", &circle}}) {
      experiment("exp.boundary", [&] { return study.boundary(p, *probe); });
    }
    experiment("exp.family_gap", [&] { return study.family_gap(circle); });
    experiment("exp.family_gap", [&] { return study.family_gap(linear); });
    experiment("exp.family_predictors", [&] { return study.family_predictors(); });
    for (const char* p : {"Google", "ABM", "Amazon"}) {
      experiment("exp.blackbox_choices", [&] { return study.blackbox_choices(p); });
    }
    experiment("exp.naive_strategy", [&] { return study.naive_strategy(); });
    for (const char* p : {"Google", "ABM"}) {
      experiment("exp.naive_vs", [&] { return study.naive_vs(p); });
    }
    it.ok = it.attempted - it.failed;
    it.digest = d.hex();
  }

  IterationResult collect(bool) override { return pending_; }

  void verify() override {
    const auto reloaded = mlaas::MeasurementTable::load_csv(cache_);
    require(reloaded.size() == saved_rows_, "verify: cache row count differs from the campaign");
  }

  void report(std::ostream& out, const std::vector<IterationResult>& iterations,
              double median_wall_s, double) const override {
    const auto& last = iterations.back();
    out << "  experiments_per_s " << static_cast<double>(last.ok) / median_wall_s << " 1/s ("
        << last.attempted << " experiment calls over " << saved_rows_ << " cached rows)\n";
  }

 private:
  mlaas::StudyOptions study_;
  std::string cache_;
  std::string journal_;
  std::size_t saved_rows_ = 0;
  std::string setup_digest_[2];  // plain, timed roster
  IterationResult pending_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const RunConfig& config) {
  if (config.workload == "campaign") return std::make_unique<CampaignWorkload>(config);
  if (config.workload == "serve") return std::make_unique<ServeWorkload>(config);
  if (config.workload == "reproduce") return std::make_unique<ReproduceWorkload>(config);
  throw std::invalid_argument("unknown workload '" + config.workload + "'");
}

std::vector<std::string> roster_pairs() {
  std::vector<std::string> pairs;
  for (const auto& p : mlaas::make_all_platforms()) {
    std::set<std::string> seen;
    const auto add = [&](const std::string& classifier) {
      const std::string tag = pair_tag(p->name(), classifier);
      if (seen.insert(tag).second) pairs.push_back(tag);
    };
    add(p->baseline_config().classifier);
    for (const auto& spec : p->controls().classifiers) add(spec.classifier);
  }
  return pairs;
}

std::vector<std::string> experiment_names() {
  return {"baseline",     "optimized",         "fig5",           "table4",
          "fig6",         "fig7",              "fig8",           "boundary",
          "family_gap",   "family_predictors", "blackbox_choices", "naive_strategy",
          "naive_vs"};
}

}  // namespace perfbench
