// Serving-layer benchmark: the batched multi-tenant QueryRouter under
// skewed workloads (ROADMAP "production-scale service" extension).
//
// Scenarios (all deterministic in the simulated clock):
//   open_loop_skewed   6 Zipf-weighted tenants over 4 platforms, Poisson
//                      arrivals at 50 req/s against the default quotas.
//   closed_loop        8 synchronous clients over 2 platforms, unlimited
//                      quota — the batcher's best case.
//   small_cache        model-cache capacity 2 under 6 tenants: constant
//                      eviction + deterministic re-train churn.
//   chaos_soak         seeded "storm" fault schedule with deadline budgets,
//                      breaker-gated failover and last-known-good serving.
//                      The scenario runs twice and aborts unless goodput is
//                      positive and both runs produce byte-identical reports.
//   traced_storm       chaos_soak with end-to-end tracing on: runs twice and
//                      aborts unless the Chrome trace_event JSON of both runs
//                      is byte-identical (the trace determinism gate).  In
//                      --json mode the trace is written next to the results
//                      (BENCH_serving_trace.json) for the CI artifact.
//
// Modes:
//   (default)                human-readable table
//   --json                   regression harness: --out FILE (default
//                            BENCH_serving.json), --baseline FILE and
//                            --check-regression F, the gate of bench_gate.h
//                            on each scenario's throughput_rows_per_sec.
//                            Simulated throughput is seeded and
//                            deterministic, so the factor only needs to
//                            absorb intentional behaviour changes, not
//                            runner noise.
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_gate.h"
#include "platform/serving.h"
#include "util/table.h"
#include "util/trace.h"

namespace {

using namespace mlaas;

struct ScenarioResult {
  std::string name;
  ServingReport report;
  double wall_seconds = 0.0;
  std::shared_ptr<const Trace> trace;  // traced_storm only
};

ScenarioResult run_scenario(const std::string& name) {
  ServingWorkloadOptions options;
  options.seed = 42;
  options.requests = 2000;
  std::vector<std::string> roster;
  std::size_t n_tenants = 6;
  if (name == "open_loop_skewed") {
    roster = {"Local", "Google", "Amazon", "BigML"};
    options.arrival_rate = 50.0;
  } else if (name == "closed_loop") {
    roster = {"Local", "Google"};
    options.closed_loop = true;
    options.clients = 8;
    options.quota_profile = "unlimited";
  } else if (name == "small_cache") {
    roster = {"Local", "Google", "Amazon", "BigML"};
    options.arrival_rate = 50.0;
    options.serving.model_cache_capacity = 2;
  } else if (name == "chaos_soak" || name == "traced_storm") {
    roster = {"Local", "Google", "Amazon", "BigML"};
    options.arrival_rate = 50.0;
    options.serving.fault_rate = 0.1;
    options.serving.chaos_profile = "storm";
    options.serving.deadline_seconds = 30.0;
    options.serving.fallback_platform = "Google";
    options.serving.serve_last_known_good = true;
    options.serving.breaker.enabled = true;
    options.serving.breaker.failure_threshold = 3;
    options.serving.breaker.cooldown_seconds = 120.0;
    options.serving.breaker.max_probes = 4;
    options.serving.trace = name == "traced_storm";
  } else {
    throw std::invalid_argument("unknown scenario " + name);
  }
  const auto tenants = make_serving_tenants(n_tenants, roster, options.seed);
  const ServingWorkloadResult run = run_serving_workload(tenants, options);
  if (name == "chaos_soak" || name == "traced_storm") {
    // Determinism gate: a second pass through the identical seeded storm must
    // reproduce the report byte-for-byte and keep serving useful answers.
    const ServingWorkloadResult rerun = run_serving_workload(tenants, options);
    std::ostringstream first, second;
    run.report.write_tsv(first);
    rerun.report.write_tsv(second);
    if (first.str() != second.str()) {
      std::cerr << name << ": rerun report diverged from first run\n";
      std::exit(1);
    }
    if (!(run.report.totals.goodput() > 0.0)) {
      std::cerr << name << ": goodput collapsed to zero under the storm\n";
      std::exit(1);
    }
    if (name == "traced_storm") {
      // The trace itself must be as deterministic as the report it annotates.
      std::ostringstream t1, t2;
      run.trace->write_chrome_json(t1);
      rerun.trace->write_chrome_json(t2);
      if (t1.str() != t2.str()) {
        std::cerr << name << ": rerun trace diverged from first run\n";
        std::exit(1);
      }
    }
  }
  return {name, run.report, run.wall_seconds, run.trace};
}

const std::vector<std::string>& scenario_names() {
  static const std::vector<std::string> names = {"open_loop_skewed", "closed_loop",
                                                 "small_cache", "chaos_soak",
                                                 "traced_storm"};
  return names;
}

int run_json_mode(const std::vector<std::string>& args) {
  const auto parsed = parse_json_mode_args(args, "BENCH_serving.json");
  if (!parsed) return 1;

  std::vector<ScenarioResult> results;
  for (const auto& name : scenario_names()) results.push_back(run_scenario(name));

  std::ostringstream json;
  json.precision(6);
  json << "{\n  \"bench\": \"serving\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ServingStats& t = results[i].report.totals;
    json << "    {\"name\": \"" << results[i].name
         << "\", \"throughput_rows_per_sec\": " << t.throughput_rows_per_sec()
         << ", \"p50_ms\": " << t.latency.quantile(0.50) * 1e3
         << ", \"p95_ms\": " << t.latency.quantile(0.95) * 1e3
         << ", \"p99_ms\": " << t.latency.quantile(0.99) * 1e3
         << ", \"requests\": " << t.requests << ", \"ok\": " << t.ok
         << ", \"rows\": " << t.rows
         << ", \"batch_occupancy\": " << t.batch_occupancy(results[i].report.max_batch_rows)
         << ", \"cache_evictions\": " << t.cache_evictions
         << ", \"simulated_seconds\": " << t.simulated_seconds
         << ", \"wall_seconds\": " << results[i].wall_seconds << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << json.str();

  std::vector<std::pair<std::string, double>> throughputs;
  for (const auto& r : results) {
    throughputs.emplace_back(r.name, r.report.totals.throughput_rows_per_sec());
    // Sample Chrome trace from the traced scenario, uploaded as a CI
    // artifact beside the throughput JSON.
    if (r.trace != nullptr) {
      const std::string trace_path = "BENCH_serving_trace.json";
      r.trace->save_json(trace_path);
      std::cout << "wrote " << trace_path << " (" << r.trace->event_count()
                << " events on " << r.trace->track_count() << " tracks)\n";
    }
  }
  return finish_json_mode(*parsed, json.str(), "throughput_rows_per_sec", throughputs);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      std::vector<std::string> args(argv + 1, argv + argc);
      return run_json_mode(args);
    }
  }

  TextTable t({"Scenario", "Rows/s (sim)", "p50 (ms)", "p95 (ms)", "p99 (ms)",
               "Occupancy", "Evictions", "Wall (s)"});
  for (const auto& name : scenario_names()) {
    const ScenarioResult r = run_scenario(name);
    const ServingStats& totals = r.report.totals;
    t.add_row({name, fmt(totals.throughput_rows_per_sec(), 1),
               fmt(totals.latency.quantile(0.50) * 1e3, 2),
               fmt(totals.latency.quantile(0.95) * 1e3, 2),
               fmt(totals.latency.quantile(0.99) * 1e3, 2),
               fmt(totals.batch_occupancy(r.report.max_batch_rows), 2),
               std::to_string(totals.cache_evictions), fmt(r.wall_seconds, 3)});
  }
  std::cout << t.str();
  return 0;
}
