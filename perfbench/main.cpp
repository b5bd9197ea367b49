// perfbench: end-to-end benchmark program of the mlaas library.
//
//   perfbench --workload <campaign|serve|reproduce> --seed <n> --seconds <s>
//             --trace <0|1> --workdir <dir> [--smoke]
//
// Untraced runs (--trace 0) time set-up three times and then identical
// iterations until --seconds have passed, and report medians.  Traced runs
// (--trace 1) alternate an untraced and a traced iteration, derive per-layer
// numbers from the traced iterations' spans, check that both produce the
// same digests, and reconcile the span ledger with the library's own CPU
// accounting.  The last stdout line is one JSON object; perfbench/run.py
// turns it into the benchmark's result line.  Usually run through run.py.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace {

using perfbench::Facts;
using perfbench::IterationResult;

struct Args {
  perfbench::RunConfig run;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) throw std::invalid_argument(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      a.run.workload = value(i);
    } else if (flag == "--seed") {
      a.run.seed = std::stoull(value(i));
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value(i));
    } else if (flag == "--trace") {
      a.trace = value(i) == "1";
    } else if (flag == "--workdir") {
      a.run.workdir = value(i);
    } else if (flag == "--smoke") {
      a.run.smoke = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return a;
}

std::size_t host_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

double process_cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto sec = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return sec(u.ru_utime) + sec(u.ru_stime);
}

/// Start peak-RSS accounting of the timed phase: return the set-up's freed
/// memory to the system and reset the kernel's high-water mark (VmHWM).
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// VmHWM of /proc/self/status in MiB: the peak RSS since reset_peak_rss().
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Per-layer metrics.

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;
};

std::vector<MetricSpec> per_layer_specs() {
  std::vector<MetricSpec> specs = {
      {"data.corpus_s", "s", "lower"},
      {"data.split_s", "s", "lower"},
      {"fit.calls", "count", "lower"},
      {"fit.wall_s", "s", "lower"},
      {"fit.cpu_s", "s", "lower"},
      {"fit.per_ok_cell", "ratio", "lower"},
  };
  for (const auto& pair : perfbench::roster_pairs()) {
    specs.push_back({"fit.cpu_s." + pair, "s", "lower"});
  }
  for (const MetricSpec& m : std::vector<MetricSpec>{
           {"predict.calls", "count", "lower"},
           {"predict.rows", "count", "lower"},
           {"predict.wall_s", "s", "lower"},
           {"predict.cpu_s", "s", "lower"},
           {"predict.us_per_row", "us", "lower"}}) {
    specs.push_back(m);
  }
  for (const auto& pair : perfbench::roster_pairs()) {
    specs.push_back({"predict.cpu_s." + pair, "s", "lower"});
  }
  for (const MetricSpec& m : std::vector<MetricSpec>{
           {"sched.makespan_s", "s", "lower"},
           {"sched.busy_s", "s", "lower"},
           {"sched.idle_s", "s", "lower"},
           {"sched.imbalance", "ratio", "lower"},
           {"session.other_s", "s", "lower"},
           {"journal.bytes", "bytes", "lower"},
           {"service.requests", "count", "lower"},
           {"service.retries", "count", "lower"},
           {"service.rate_limited", "count", "lower"},
           {"service.sim_h", "h", "lower"},
           {"router.submit_us_p50", "us", "lower"},
           {"router.submit_us_p99", "us", "lower"},
           {"router.advance_us_p50", "us", "lower"},
           {"router.advance_us_p99", "us", "lower"},
           {"router.self_s", "s", "lower"},
           {"router.batches", "count", "lower"},
           {"router.mean_batch_rows", "rows", "higher"},
           {"router.hit_ratio", "ratio", "higher"},
           {"router.trainings", "count", "lower"},
           {"router.sim_p50_ms", "ms", "lower"},
           {"router.sim_p99_ms", "ms", "lower"},
           {"cache.save_s", "s", "lower"},
           {"cache.load_s", "s", "lower"},
           {"cache.rows", "count", "lower"}}) {
    specs.push_back(m);
  }
  for (const auto& e : perfbench::experiment_names()) {
    specs.push_back({"exp." + e + "_s", "s", "lower"});
  }
  specs.push_back({"trace.overhead_s", "s", "lower"});
  specs.push_back({"trace.overhead_pct", "%", "lower"});
  specs.push_back({"trace.spans", "count", "lower"});
  return specs;
}

using Layer = std::map<std::string, double>;

double fact(const Facts& facts, const std::string& name) {
  const auto it = facts.find(name);
  return it == facts.end() ? 0.0 : it->second;
}

/// Per-layer numbers of one traced phase (the traced set-up or one traced
/// iteration) from its spans and the workload's facts.  Metrics the phase
/// did not exercise stay 0.
Layer layer_metrics(const perfbench::SpanSummary& s, const Facts& facts) {
  Layer m;
  const auto totals = [&](const char* name) -> const perfbench::NameTotals& {
    static const perfbench::NameTotals kNone;
    const auto it = s.by_name.find(name);
    return it == s.by_name.end() ? kNone : it->second;
  };
  m["data.corpus_s"] = totals("data.corpus").wall_s;
  m["data.split_s"] = totals("data.split").wall_s;

  const auto& fit = totals("fit");
  m["fit.calls"] = static_cast<double>(fit.count);
  m["fit.wall_s"] = fit.wall_s;
  m["fit.cpu_s"] = fit.cpu_s;
  if (fit.count > 0 && fact(facts, "fit.useful") > 0) {
    m["fit.per_ok_cell"] = static_cast<double>(fit.count) / fact(facts, "fit.useful");
  }
  for (const auto& [tag, cpu] : s.fit_cpu_by_tag) m["fit.cpu_s." + tag] += cpu;

  const auto& predict = totals("predict");
  m["predict.calls"] = static_cast<double>(predict.count);
  m["predict.rows"] = static_cast<double>(predict.rows);
  m["predict.wall_s"] = predict.wall_s;
  m["predict.cpu_s"] = predict.cpu_s;
  if (predict.rows > 0) {
    m["predict.us_per_row"] = predict.wall_s * 1e6 / static_cast<double>(predict.rows);
  }
  for (const auto& [tag, cpu] : s.predict_cpu_by_tag) m["predict.cpu_s." + tag] += cpu;

  for (const char* name : {"sched.makespan_s", "sched.busy_s", "sched.idle_s", "sched.imbalance",
                           "journal.bytes", "service.requests", "service.retries",
                           "service.rate_limited", "service.sim_h", "router.batches",
                           "router.mean_batch_rows", "router.hit_ratio", "router.trainings",
                           "router.sim_p50_ms", "router.sim_p99_ms", "cache.rows"}) {
    m[name] = fact(facts, name);
  }
  if (facts.count("sched.busy_s")) {
    m["session.other_s"] = fact(facts, "sched.busy_s") - fit.wall_s - predict.wall_s;
  }

  const auto& submit = totals("router.submit");
  const auto& advance = totals("router.advance");
  m["router.submit_us_p50"] = perfbench::percentile(submit.durations_s, 0.50) * 1e6;
  m["router.submit_us_p99"] = perfbench::percentile(submit.durations_s, 0.99) * 1e6;
  m["router.advance_us_p50"] = perfbench::percentile(advance.durations_s, 0.50) * 1e6;
  m["router.advance_us_p99"] = perfbench::percentile(advance.durations_s, 0.99) * 1e6;
  m["router.self_s"] = submit.self_s + advance.self_s + totals("router.drain").self_s;

  m["cache.save_s"] = totals("cache.save").wall_s;
  m["cache.load_s"] = totals("cache.load").wall_s;
  for (const auto& e : perfbench::experiment_names()) {
    m["exp." + e + "_s"] = totals(("exp." + e).c_str()).wall_s;
  }
  m["trace.spans"] = static_cast<double>(s.spans);
  return m;
}

/// The traced run's three reconciliation checks; returns failures.
std::vector<std::string> reconcile(const std::string& phase, const perfbench::SpanSummary& s,
                                   const Layer& m, const Facts& facts) {
  std::vector<std::string> failures;
  if (facts.count("ledger.cpu_s")) {
    // The library measures train/predict CPU just outside the decorator's
    // spans, so the two ledgers differ only by the decorator's own cost.
    const double spans = m.at("fit.cpu_s") + m.at("predict.cpu_s");
    const double ledger = fact(facts, "ledger.cpu_s");
    if (std::abs(spans - ledger) > 0.02 * std::max(spans, ledger) + 0.05) {
      failures.push_back(phase + ": span fit+predict CPU " + number(spans) +
                         " s does not match the library's train+predict CPU " +
                         number(ledger) + " s");
    }
  }
  if (facts.count("sched.busy_s") &&
      fact(facts, "sched.busy_s") < m.at("fit.wall_s") + m.at("predict.wall_s")) {
    failures.push_back(phase + ": sched.busy_s " + number(fact(facts, "sched.busy_s")) +
                       " < fit.wall_s + predict.wall_s " +
                       number(m.at("fit.wall_s") + m.at("predict.wall_s")));
  }
  if (s.min_self_s < 0.0) {
    failures.push_back(phase + ": negative self time " + number(s.min_self_s));
  }
  return failures;
}

int run(const Args& args) {
  using clock = std::chrono::steady_clock;
  auto workload = perfbench::make_workload(args.run);
  std::vector<std::string> failures;

  // Set-up: repeated until three runs and two seconds have passed (once at
  // smoke size), median reported.
  std::vector<double> setup_times;
  const auto setup_start = clock::now();
  do {
    const auto t0 = clock::now();
    workload->setup(false);
    setup_times.push_back(seconds_since(t0));
  } while (!args.run.smoke && setup_times.size() < 15 &&
           (setup_times.size() < 3 || seconds_since(setup_start) < 2.0));
  Layer setup_layer;
  std::vector<perfbench::Span> spans_out;
  if (args.trace) {
    perfbench::start_recording();
    const Facts facts = workload->setup(true);
    spans_out = perfbench::stop_recording();
    const auto summary = perfbench::summarize(spans_out);
    setup_layer = layer_metrics(summary, facts);
    for (auto& f : reconcile("traced set-up", summary, setup_layer, facts)) failures.push_back(f);
  }

  reset_peak_rss();

  // Iterations until the run length has passed (at least three per mode).
  const std::size_t min_iterations = args.run.smoke ? 1 : 3;
  std::vector<IterationResult> plain;
  std::vector<IterationResult> traced;
  std::vector<double> plain_wall, plain_cpu, traced_wall;
  std::vector<Layer> traced_layers;
  const auto loop_start = clock::now();
  while (plain.size() < min_iterations || seconds_since(loop_start) < args.seconds) {
    {
      const double cpu0 = process_cpu_seconds();
      const auto t0 = clock::now();
      workload->run(false);
      plain_wall.push_back(seconds_since(t0));
      plain_cpu.push_back(process_cpu_seconds() - cpu0);
      plain.push_back(workload->collect(false));
    }
    if (args.trace) {
      perfbench::start_recording();
      const auto t0 = clock::now();
      workload->run(true);
      traced_wall.push_back(seconds_since(t0));
      auto spans = perfbench::stop_recording();
      traced.push_back(workload->collect(true));
      const auto summary = perfbench::summarize(spans);
      traced_layers.push_back(layer_metrics(summary, traced.back().facts));
      for (auto& f : reconcile("traced iteration " + std::to_string(traced.size()), summary,
                               traced_layers.back(), traced.back().facts)) {
        failures.push_back(f);
      }
      // The span file holds the traced set-up and the first traced iteration.
      if (traced.size() == 1) {
        spans_out.insert(spans_out.end(), std::make_move_iterator(spans.begin()),
                         std::make_move_iterator(spans.end()));
      }
      if (traced.back().digest != plain.back().digest) {
        failures.push_back("traced iteration " + std::to_string(traced.size()) + " digest " +
                           traced.back().digest + " differs from untraced " +
                           plain.back().digest);
      }
    }
  }
  for (const auto& it : plain) {
    if (it.digest != plain.front().digest) {
      failures.push_back("iterations of one run produced different outputs");
      break;
    }
  }
  try {
    workload->verify();
  } catch (const std::exception& e) {
    failures.push_back(e.what());
  }

  const double wall = median(plain_wall);
  const double cpu = median(plain_cpu);
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const auto* list : {&plain, &traced}) {
    for (const auto& it : *list) {
      attempted += it.attempted;
      failed += it.failed;
    }
  }

  // Human-readable report.
  std::cout << "perfbench " << args.run.workload << (args.run.smoke ? " (smoke)" : "")
            << " seed=" << args.run.seed << " trace=" << args.trace << "\n";
  std::cout << "  setup_s         " << median(setup_times) << " s (median of " << setup_times.size()
            << ")\n";
  std::cout << "  wall_s          " << wall << " s (median of " << plain.size()
            << " iterations, range " << *std::min_element(plain_wall.begin(), plain_wall.end())
            << " to " << *std::max_element(plain_wall.begin(), plain_wall.end()) << ")\n";
  std::cout << "  cpu_s           " << cpu << " s\n";
  std::cout << "  peak_rss_mb     " << peak_rss_mib() << " MiB\n";
  std::cout << "  error_rate      "
            << (attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0)
            << " ratio (" << failed << "/" << attempted << ")\n";
  workload->report(std::cout, plain, wall, cpu);

  // Metrics of this mode.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (!args.trace) {
    const double ok = static_cast<double>(plain.back().ok);
    metrics = {{"setup_s", {median(setup_times), "s"}},
               {"wall_s", {wall, "s"}},
               {"cpu_s", {cpu, "s"}},
               {"peak_rss_mb", {peak_rss_mib(), "MiB"}},
               {"ops_per_s", {ok / wall, "1/s"}}};
  } else {
    const auto specs = per_layer_specs();
    const auto value = [](const Layer& l, const std::string& name) {
      const auto it = l.find(name);
      return it == l.end() ? 0.0 : it->second;
    };
    Layer layer;
    for (const auto& spec : specs) {
      std::vector<double> values;
      for (const auto& l : traced_layers) values.push_back(value(l, spec.name));
      layer[spec.name] = median(values) + value(setup_layer, spec.name);
    }
    layer["trace.overhead_s"] = median(traced_wall) - wall;
    layer["trace.overhead_pct"] = 100.0 * (median(traced_wall) - wall) / wall;
    // A span tag outside the roster's pairs would otherwise be dropped.
    for (const Layer* l : {&setup_layer, &traced_layers.front()}) {
      for (const auto& [name, _] : *l) {
        if (!layer.count(name)) failures.push_back("undeclared per-layer metric " + name);
      }
    }
    for (const auto& spec : specs) metrics.push_back({spec.name, {layer.at(spec.name), spec.unit}});
    std::cout << "  trace overhead  " << layer["trace.overhead_s"] << " s per iteration ("
              << layer["trace.overhead_pct"] << "%), traced wall "
              << median(traced_wall) << " s vs untraced " << wall << " s\n";
    const std::string span_file = (std::filesystem::path(args.run.workdir) /
                                   (args.run.workload + "_seed" + std::to_string(args.run.seed) +
                                    ".spans.tsv"))
                                      .string();
    perfbench::write_spans_tsv(spans_out, span_file);
    std::cout << "  spans           " << spans_out.size() << " written to " << span_file << "\n";
  }
  for (const auto& f : failures) std::cout << "  CHECK FAILED: " << f << "\n";

  std::ostringstream json;
  json << "{\"workload\": " << quote(args.run.workload) << ", \"seed\": " << args.run.seed
       << ", \"trace\": " << args.trace << ", \"smoke\": " << (args.run.smoke ? "true" : "false")
       << ", \"meta\": {\"host_threads\": " << args.run.threads
       << ", \"build_type\": " << quote(PERFBENCH_BUILD_TYPE)
       << ", \"compiler\": " << quote(PERFBENCH_CXX_COMPILER) << "}"
       << ", \"digest\": " << quote(plain.front().digest)
       << ", \"correct\": " << (failures.empty() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << quote(metrics[i].first) << ": {\"value\": "
         << number(metrics[i].second.first) << ", \"unit\": " << quote(metrics[i].second.second)
         << "}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args = parse_args(argc, argv);
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
      std::cerr << "perfbench: refusing to report numbers from a " << PERFBENCH_BUILD_TYPE
                << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
      return 2;
    }
    if (args.run.workload.empty() || args.run.workdir.empty()) {
      throw std::invalid_argument("--workload and --workdir are required");
    }
    args.run.threads = host_threads();
    std::filesystem::create_directories(args.run.workdir);
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
