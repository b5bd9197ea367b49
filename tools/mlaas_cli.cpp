// mlaas_cli — command-line front end for the library.  `mlaas_cli --help`
// prints the commands and their flags (kUsage below, then the campaign flags
// from StudyOptions::flags_usage).  Every command rejects a flag it does not
// read.
#include <cmath>
#include <filesystem>
#include <iostream>
#include <stdexcept>

#include "util/trace.h"

#include "core/study.h"
#include "data/corpus.h"
#include "data/csv.h"
#include "data/generators.h"
#include "data/split.h"
#include "eval/boundary.h"
#include "eval/journal.h"
#include "ml/metrics.h"
#include "platform/all_platforms.h"
#include "platform/serving.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

using namespace mlaas;

constexpr const char* kUsage = R"(usage: mlaas_cli <command> [flags]

  mlaas_cli --help | mlaas_cli <command> --help
      Print this text.  Every command rejects a flag it does not list.
  mlaas_cli list
      Platforms, their control surfaces, classifiers and feature steps.
  mlaas_cli train --csv data.csv --platform Microsoft
             [--clf boosted_trees] [--feat filter_fisher]
             [--params "n_estimators=80,learning_rate=0.1"]
             [--test-fraction 0.3] [--seed 42] [--label-column -1]
      Load a CSV (last column = label by default), 70/30 split, train the
      configured pipeline, print test metrics.
  mlaas_cli probe --platform Google [--seed 42]
      Decision-boundary probe on the CIRCLE and LINEAR datasets (§6.1).
  mlaas_cli corpus --out DIR [--seed 42] [--n 119]
      Write the synthetic study corpus as CSV files.
  mlaas_cli campaign [campaign flags] [--verbose] [--journal PATH]
             [--out report.tsv] [--json report.json] [--trace-out trace.json]
      Run the measurement campaign through the simulated service layer
      and print/write the per-platform telemetry report.  The campaign
      flags, shared with the study benches, are listed at the end.
      Finished cells are journaled to PATH (write-ahead, fsync'd); an
      interrupted campaign resumes from the journal on the next run
      unless --fresh.
  mlaas_cli serve-bench [--tenants 6] [--platforms Local,Google,...]
             [--requests 2000] [--rate 50] [--closed-loop] [--clients 8]
             [--batch 64] [--linger 0.05] [--cache-capacity 8]
             [--max-pending 0] [--quota-profile default] [--seed 42]
             [--fault-rate 0.1] [--chaos-profile storm] [--deadline-ms 500]
             [--fallback Local] [--last-known-good] [--breakers]
             [--breaker-threshold 3] [--breaker-cooldown 300]
             [--breaker-probes 2]
             [--out report.tsv] [--json report.json] [--trace-out trace.json]
      Drive the batched query-serving layer (QueryRouter) with a seeded
      multi-tenant workload — Zipf-skewed tenant mix, open-loop Poisson
      arrivals at --rate (or --closed-loop with --clients callers) — and
      print per-tenant latency percentiles plus router telemetry.  The
      fault-tolerance knobs inject seeded chaos (--fault-rate /
      --chaos-profile), bound each request by a deadline budget
      (--deadline-ms) and arm the degradation ladder (--fallback,
      --last-known-good, --breakers); when any of them is on the summary
      gains a one-line resilience report (goodput, deadline misses,
      failovers, breaker trips).

  Both campaign and serve-bench accept --trace-out PATH: record a
  deterministic end-to-end trace (service spans, retry waits, breaker
  transitions, batch flushes) and write it as Chrome trace_event JSON —
  load it in chrome://tracing or Perfetto.  Tracing changes no report
  byte and no cache fingerprint.
)";

int cmd_list(const CliFlags& flags) {
  flags.reject_unread();
  TextTable t({"Platform", "FEAT steps", "Classifiers", "Tunable params"});
  for (const auto& name : platform_names()) {
    const ControlSurface s = make_platform(name)->controls();
    std::string classifiers;
    std::size_t n_params = 0;
    for (const auto& spec : s.classifiers) {
      if (!classifiers.empty()) classifiers += ", ";
      classifiers += classifier_abbrev(spec.classifier);
      n_params += spec.params.size();
    }
    t.add_row({name, std::to_string(s.feature_steps.size()),
               classifiers.empty() ? "(automated)" : classifiers,
               std::to_string(n_params)});
  }
  std::cout << t.str();
  std::cout << "\nClassifier registry: ";
  for (const auto& name : classifier_names()) std::cout << name << " ";
  std::cout << "\n";
  return 0;
}

int cmd_train(const CliFlags& flags) {
  const auto csv_path = flags.get("csv");
  CsvOptions csv_options;
  csv_options.label_column = static_cast<int>(flags.int_or("label-column", -1));
  const std::string platform_name = flags.get_or("platform", "Local");
  PipelineConfig config;
  config.feature_step = flags.get_or("feat", "");
  config.classifier = flags.get_or("clf", "");
  config.params = parse_params(flags.get_or("params", ""));
  const auto seed = static_cast<std::uint64_t>(flags.int_or("seed", 42));
  const double test_fraction = flags.double_or("test-fraction", 0.3);
  flags.reject_unread();
  if (!csv_path) {
    std::cerr << "train: --csv FILE is required\n";
    return 2;
  }

  const Dataset dataset = load_csv_file(*csv_path, csv_options);
  const auto platform = make_platform(platform_name);
  const auto split = train_test_split(dataset, test_fraction, seed);
  const auto model = platform->train(split.train, config, seed);
  const Metrics m = compute_metrics(split.test.y(), model->predict(split.test.x()));

  std::cout << "dataset:   " << *csv_path << " (" << dataset.n_samples() << " x "
            << dataset.n_features() << ")\n"
            << "platform:  " << platform_name << "\n"
            << "config:    " << config.key() << "\n"
            << "train/test: " << split.train.n_samples() << "/" << split.test.n_samples()
            << "\n\n";
  TextTable t({"Metric", "Value"});
  t.add_row({"F-score", fmt(m.f_score)});
  t.add_row({"Accuracy", fmt(m.accuracy)});
  t.add_row({"Precision", fmt(m.precision)});
  t.add_row({"Recall", fmt(m.recall)});
  std::cout << t.str();
  return 0;
}

int cmd_probe(const CliFlags& flags) {
  const std::string platform_name = flags.get_or("platform", "Google");
  const auto seed = static_cast<std::uint64_t>(flags.int_or("seed", 42));
  flags.reject_unread();
  const auto platform = make_platform(platform_name);
  for (const bool is_circle : {true, false}) {
    const Dataset probe =
        is_circle ? make_circle_probe(seed) : make_linear_probe(seed);
    const BoundaryMap map = probe_decision_boundary(*platform, probe, seed);
    std::cout << platform_name << " on " << probe.meta().name << ":\n"
              << render_boundary(map, 44) << "linear-fit accuracy "
              << fmt(map.linear_fit_accuracy) << " -> "
              << (boundary_is_linear(map) ? "LINEAR" : "NON-LINEAR") << "\n\n";
  }
  return 0;
}

int cmd_corpus(const CliFlags& flags) {
  const std::string out_dir = flags.get_or("out", "corpus_csv");
  CorpusOptions options;
  options.seed = static_cast<std::uint64_t>(flags.int_or("seed", 42));
  const long long n_datasets = flags.int_or("n", 119);
  flags.reject_unread();
  if (n_datasets < 1) {
    throw std::invalid_argument("--n must be >= 1, got " + std::to_string(n_datasets));
  }
  options.n_datasets = static_cast<std::size_t>(n_datasets);
  std::filesystem::create_directories(out_dir);
  const auto corpus = build_corpus(options);
  for (const auto& ds : corpus) {
    save_csv_file(ds, out_dir + "/" + ds.meta().id + ".csv");
  }
  std::cout << "wrote " << corpus.size() << " datasets to " << out_dir << "/\n";
  return 0;
}

int cmd_campaign(const CliFlags& flags) {
  StudyOptions opt = StudyOptions::from_flags(flags);
  opt.verbose = flags.bool_or("verbose", false);
  const auto trace_out = flags.get("trace-out");
  opt.trace = trace_out.has_value();
  const std::string journal_path =
      flags.get_or("journal", "mlaas_campaign_seed" + std::to_string(opt.seed) + ".journal");
  const auto out = flags.get("out");
  const auto json = flags.get("json");
  flags.reject_unread();

  Study study(opt);
  MeasurementOptions moptions = opt.measurement_options();
  moptions.campaign.journal_path = journal_path;

  // One-line resume summary before the run: how much of the campaign a
  // prior crashed invocation already banked.
  {
    const std::string fingerprint =
        measurement_fingerprint(study.corpus(), study.platforms(), moptions);
    const auto restored =
        moptions.campaign.resume ? CellJournal::load(moptions.campaign.journal_path, fingerprint)
                                 : std::nullopt;
    if (restored && (restored->cells > 0 || restored->discarded > 0)) {
      std::cout << "resuming from " << moptions.campaign.journal_path << ": "
                << restored->cells << " cells restored from " << restored->sessions.size()
                << " completed sessions, " << restored->discarded
                << " partial cells re-run\n";
    } else {
      std::cout << "fresh campaign (journal: " << moptions.campaign.journal_path << ")\n";
    }
  }

  const CampaignResult result = run_campaign(study.corpus(), study.platforms(), moptions);
  CellJournal::remove(moptions.campaign.journal_path);

  TextTable t({"Platform", "Cells ok", "Failed", "Rejected", "Deferred", "Restored",
               "Requests", "Retries", "Rate-limited", "Faults", "Outages", "Trips",
               "Simulated (h)"});
  for (const auto& p : result.report.platforms) {
    t.add_row({p.platform, std::to_string(p.cells_ok), std::to_string(p.cells_failed),
               std::to_string(p.cells_rejected), std::to_string(p.cells_deferred),
               std::to_string(p.cells_restored), std::to_string(p.service.requests),
               std::to_string(p.retries), std::to_string(p.service.rate_limited),
               std::to_string(p.service.transient_errors),
               std::to_string(p.service.unavailable), std::to_string(p.breaker_trips),
               fmt(p.simulated_seconds / 3600.0, 2)});
  }
  const PlatformCampaignStats total = result.report.totals();
  std::cout << t.str() << "\ncoverage: " << fmt(100.0 * result.report.coverage(), 1)
            << "%  (" << total.cells_ok << " ok, " << total.cells_failed << " failed, "
            << total.cells_deferred << " deferred, " << total.cells_rejected
            << " rejected)\n";
  const SchedulerStats& sched = result.report.scheduler;
  std::cout << "scheduler: " << sched.schedule << ", " << sched.workers << " workers, "
            << sched.sessions << " sessions (" << sched.sessions_stolen << " stolen), "
            << "makespan " << fmt(sched.makespan_seconds, 2) << " s, imbalance "
            << fmt(sched.imbalance(), 2) << "x\n";
  if (out) {
    result.report.save_tsv(*out);
    std::cout << "wrote " << *out << "\n";
  }
  if (json) {
    result.report.save_json(*json);
    std::cout << "wrote " << *json << "\n";
  }
  if (trace_out && result.trace != nullptr) {
    result.trace->save_json(*trace_out);
    std::cout << "wrote " << *trace_out << " (" << result.trace->event_count()
              << " events on " << result.trace->track_count() << " tracks)\n";
  }
  return 0;
}

int cmd_serve_bench(const CliFlags& flags) {
  std::vector<std::string> roster;
  {
    const std::string csv = flags.get_or("platforms", "");
    std::size_t start = 0;
    while (start < csv.size()) {
      const std::size_t comma = csv.find(',', start);
      const std::size_t end = comma == std::string::npos ? csv.size() : comma;
      if (end > start) roster.push_back(csv.substr(start, end - start));
      start = end + 1;
    }
    if (roster.empty()) roster = platform_names();
  }

  ServingWorkloadOptions options;
  options.seed = static_cast<std::uint64_t>(flags.int_or("seed", 42));
  // Validate raw integer flags before the size_t casts, mirroring the
  // --threads fix: "--batch -1" used to become a ~2^64-row batch cap.
  const long long requests = flags.int_or("requests", 2000);
  if (requests < 0) {
    throw std::invalid_argument("--requests must be >= 0, got " +
                                std::to_string(requests));
  }
  options.requests = static_cast<std::size_t>(requests);
  options.arrival_rate = flags.double_or("rate", 50.0);
  if (!(options.arrival_rate > 0.0) || !std::isfinite(options.arrival_rate)) {
    throw std::invalid_argument("--rate must be a finite value > 0");
  }
  options.closed_loop = flags.bool_or("closed-loop", false);
  const long long clients = flags.int_or("clients", 8);
  if (clients < 1) {
    throw std::invalid_argument("--clients must be >= 1, got " + std::to_string(clients));
  }
  options.clients = static_cast<std::size_t>(clients);
  options.quota_profile =
      profile_or(flags, "quota-profile", options.quota_profile, quota_profile_names());
  const long long batch = flags.int_or("batch", 64);
  if (batch < 1) {
    throw std::invalid_argument("--batch must be >= 1, got " + std::to_string(batch));
  }
  options.serving.max_batch_rows = static_cast<std::size_t>(batch);
  options.serving.linger_seconds = flags.double_or("linger", 0.05);
  const long long cache_capacity = flags.int_or("cache-capacity", 8);
  if (cache_capacity < 1) {
    throw std::invalid_argument("--cache-capacity must be >= 1, got " +
                                std::to_string(cache_capacity));
  }
  options.serving.model_cache_capacity = static_cast<std::size_t>(cache_capacity);
  const long long max_pending = flags.int_or("max-pending", 0);
  if (max_pending < 0) {
    throw std::invalid_argument("--max-pending must be >= 0 (0 = unbounded), got " +
                                std::to_string(max_pending));
  }
  options.serving.max_pending_rows = static_cast<std::size_t>(max_pending);
  options.serving.fault_rate = flags.double_or("fault-rate", 0.0);
  options.serving.chaos_profile =
      profile_or(flags, "chaos-profile", options.serving.chaos_profile, chaos_profile_names());
  options.serving.deadline_seconds = flags.double_or("deadline-ms", 0.0) / 1000.0;
  options.serving.fallback_platform = flags.get_or("fallback", "");
  options.serving.serve_last_known_good = flags.bool_or("last-known-good", false);
  options.serving.breaker = breaker_options_from_flags(flags);
  const auto trace_out = flags.get("trace-out");
  options.serving.trace = trace_out.has_value();
  const long long n_tenants = flags.int_or("tenants", 6);
  if (n_tenants < 1) {
    throw std::invalid_argument("--tenants must be >= 1, got " + std::to_string(n_tenants));
  }
  const auto out = flags.get("out");
  const auto json = flags.get("json");
  flags.reject_unread();
  // The ServingOptions range checks (--linger, --fault-rate, --deadline-ms,
  // the breaker knobs), shared with embedders.
  validate_serving_options(options.serving);
  if (!options.serving.fallback_platform.empty()) {
    // The fallback must be part of the roster the router is built over.
    bool present = false;
    for (const auto& name : roster) present = present || name == options.serving.fallback_platform;
    if (!present) roster.push_back(options.serving.fallback_platform);
  }

  const auto tenants =
      make_serving_tenants(static_cast<std::size_t>(n_tenants), roster, options.seed);
  const ServingWorkloadResult result = run_serving_workload(tenants, options);
  const ServingStats& totals = result.report.totals;

  TextTable t({"Tenant", "Requests", "Rows", "Ok", "Failed", "Rejected", "p50 (ms)",
               "p95 (ms)", "p99 (ms)"});
  for (const auto& tenant : result.report.tenants) {
    t.add_row({tenant.tenant, std::to_string(tenant.requests), std::to_string(tenant.rows),
               std::to_string(tenant.ok), std::to_string(tenant.failed),
               std::to_string(tenant.rejected), fmt(tenant.latency.quantile(0.50) * 1e3, 2),
               fmt(tenant.latency.quantile(0.95) * 1e3, 2),
               fmt(tenant.latency.quantile(0.99) * 1e3, 2)});
  }
  std::cout << t.str() << "\nserved " << totals.ok << "/" << totals.requests
            << " requests (" << totals.rows << " rows) in " << fmt(totals.simulated_seconds, 2)
            << " simulated s  ->  " << fmt(totals.throughput_rows_per_sec(), 1)
            << " rows/s\n"
            << "batches: " << totals.batches << " (mean " << fmt(totals.mean_batch_rows(), 2)
            << " rows, occupancy "
            << fmt(100.0 * totals.batch_occupancy(result.report.max_batch_rows), 1)
            << "%; full " << totals.flushed_full << ", linger " << totals.flushed_linger
            << ", forced " << totals.flushed_forced << ")\n"
            << "model cache: " << totals.cache_hits << " hits, " << totals.cache_misses
            << " misses, " << totals.cache_evictions << " evictions ("
            << totals.trainings << " trainings)\n"
            << "service: " << totals.retries << " retries, " << totals.rate_limited
            << " rate-limited, " << fmt(totals.backoff_seconds, 2) << " s backoff\n"
            << "latency: p50 " << fmt(totals.latency.quantile(0.50) * 1e3, 2) << " ms, p95 "
            << fmt(totals.latency.quantile(0.95) * 1e3, 2) << " ms, p99 "
            << fmt(totals.latency.quantile(0.99) * 1e3, 2) << " ms, max "
            << fmt(totals.latency.max_seconds() * 1e3, 2) << " ms\n";
  if (result.report.resilience) {
    std::cout << "resilience: goodput " << fmt(100.0 * totals.goodput(), 1) << "%, "
              << totals.deadline_missed << " deadline misses, " << totals.failovers
              << " failovers, " << totals.degraded_answers << " last-known-good, "
              << totals.degraded_rejected << " degraded rejects, "
              << totals.breaker_trips << " breaker trips (" << totals.breaker_gated
              << " gated), " << totals.refused_sleeps << " refused sleeps\n";
  }
  std::cout << "wall time: " << fmt(result.wall_seconds, 3) << " s\n";

  if (out) {
    result.report.save_tsv(*out);
    std::cout << "wrote " << *out << "\n";
  }
  if (json) {
    result.report.save_json(*json);
    std::cout << "wrote " << *json << "\n";
  }
  if (trace_out && result.trace != nullptr) {
    result.trace->save_json(*trace_out);
    std::cout << "wrote " << *trace_out << " (" << result.trace->event_count()
              << " events on " << result.trace->track_count() << " tracks)\n";
  }
  return 0;
}

int usage_error() {
  std::cerr << "usage: mlaas_cli <list|train|probe|corpus|campaign|serve-bench> [flags]\n"
               "  run 'mlaas_cli --help' for each command's flags\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage_error();
  const std::string command = argv[1];
  try {
    const CliFlags flags(argc - 1, argv + 1);
    if (command == "--help" || flags.get("help")) {
      std::cout << kUsage << "\ncampaign flags (defaults in parentheses):\n"
                << StudyOptions::flags_usage();
      return 0;
    }
    if (command == "list") return cmd_list(flags);
    if (command == "train") return cmd_train(flags);
    if (command == "probe") return cmd_probe(flags);
    if (command == "corpus") return cmd_corpus(flags);
    if (command == "campaign") return cmd_campaign(flags);
    if (command == "serve-bench") return cmd_serve_bench(flags);
    std::cerr << "mlaas_cli: unknown command '" << command << "'\n";
    return usage_error();
  } catch (const std::exception& e) {
    std::cerr << "mlaas_cli: " << e.what() << "\n";
    return 1;
  }
}
