// Micro-benchmarks: train and predict throughput of every registry
// classifier on a fixed synthetic workload.  Not a paper figure — this
// documents the cost model behind the measurement harness.
//
// Three modes:
//   (default)       google-benchmark train/predict loops over every
//                   classifier at the 400x16 workload (all benchmark flags
//                   accepted).
//   --json          perf-regression harness for the tree-family training
//                   kernel: times each tree-family classifier's fit() at
//                   n=2000, d=30 against the same fit loop through the
//                   original per-node re-sorting builder (the test-only
//                   oracle in tests/oracle/tree_fit.h) and writes
//                   machine-independent speedup ratios to a JSON file.
//   --json-predict  same harness shape for the batched prediction kernels:
//                   fits each model once, then times predict() on a 4000-row
//                   query batch against the per-row reference loops (the
//                   oracle in tests/oracle/predict.h) plus the same 0.5
//                   threshold, and writes BENCH_predict.json.  The oracle
//                   reads the model's saved state before timing starts.
//
// JSON-mode flags (shared by --json and --json-predict):
//   --out FILE               output path (default BENCH_tree_training.json /
//                            BENCH_predict.json)
//   --baseline FILE          committed baseline with expected speedups
//   --check-regression F     exit 1 if any speedup drops below
//                            baseline_speedup / F.  Also exits 1, without
//                            measuring, when F is not a positive number or
//                            --baseline is missing, and after measuring
//                            when the baseline lists a row this run did not
//                            measure or holds no positive speedup for one.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "ml/classifier.h"
#include "ml/registry.h"
#include "tests/oracle/predict.h"
#include "tests/oracle/tree_fit.h"

namespace {

using namespace mlaas;

const Dataset& workload() {
  static const Dataset ds = [] {
    MakeClassificationOptions opt;
    opt.n_samples = 400;
    opt.n_features = 16;
    opt.n_informative = 6;
    opt.n_redundant = 4;
    opt.n_clusters_per_class = 2;
    opt.class_sep = 1.2;
    return make_classification(opt, 42);
  }();
  return ds;
}

void BM_Train(benchmark::State& state, const std::string& name) {
  const Dataset& ds = workload();
  for (auto _ : state) {
    auto clf = make_classifier(name, {}, 1);
    clf->fit(ds.x(), ds.y());
    benchmark::DoNotOptimize(clf);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(ds.n_samples()));
}

void BM_Predict(benchmark::State& state, const std::string& name) {
  const Dataset& ds = workload();
  auto clf = make_classifier(name, {}, 1);
  clf->fit(ds.x(), ds.y());
  for (auto _ : state) {
    auto labels = clf->predict(ds.x());
    benchmark::DoNotOptimize(labels);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(ds.n_samples()));
}

const int registered = [] {
  for (const auto& name : classifier_names()) {
    benchmark::RegisterBenchmark(("train/" + name).c_str(),
                                 [name](benchmark::State& s) { BM_Train(s, name); });
    benchmark::RegisterBenchmark(("predict/" + name).c_str(),
                                 [name](benchmark::State& s) { BM_Predict(s, name); });
  }
  return 0;
}();

// ---------------------------------------------------------------------------
// JSON modes: flags and the regression gate shared by both harnesses.

struct BenchRow {
  std::string name;
  double fast_ms = 0.0;
  double reference_ms = 0.0;
  double speedup() const { return fast_ms > 0.0 ? reference_ms / fast_ms : 0.0; }
};

struct JsonModeArgs {
  std::string out_path;
  std::string baseline_path;
  double check_factor = 0.0;  // 0: no regression check
};

/// Parses the JSON-mode flags; returns nullopt (after printing why) when
/// --check-regression is not a positive number or has no --baseline.
std::optional<JsonModeArgs> parse_json_mode_args(const std::vector<std::string>& args,
                                                 std::string default_out) {
  JsonModeArgs parsed{std::move(default_out), "", 0.0};
  std::optional<std::string> factor;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--out" && i + 1 < args.size()) parsed.out_path = args[++i];
    else if (args[i] == "--baseline" && i + 1 < args.size()) parsed.baseline_path = args[++i];
    else if (args[i] == "--check-regression" && i + 1 < args.size()) factor = args[++i];
  }
  if (!factor) return parsed;
  char* end = nullptr;
  parsed.check_factor = std::strtod(factor->c_str(), &end);
  if (factor->empty() || *end != '\0' || !std::isfinite(parsed.check_factor) ||
      parsed.check_factor <= 0.0) {
    std::cerr << "--check-regression needs a positive number, got '" << *factor << "'\n";
    return std::nullopt;
  }
  if (parsed.baseline_path.empty()) {
    std::cerr << "--check-regression needs --baseline FILE\n";
    return std::nullopt;
  }
  return parsed;
}

/// Every (name, speedup_vs_reference) row of the (small, known-shape)
/// baseline JSON, read without a JSON library.  A row whose speedup does
/// not parse gets 0.
std::vector<std::pair<std::string, double>> baseline_rows(const std::string& json) {
  std::vector<std::pair<std::string, double>> rows;
  const std::string anchor = "\"name\": \"";
  const std::string key = "\"speedup_vs_reference\":";
  for (std::size_t at = json.find(anchor); at != std::string::npos;
       at = json.find(anchor, at)) {
    at += anchor.size();
    const std::size_t close = json.find('"', at);
    if (close == std::string::npos) break;
    std::string name = json.substr(at, close - at);
    const std::size_t row_end = std::min(json.find('}', close), json.find(anchor, close));
    const std::size_t value = json.find(key, close);
    const double speedup = value < row_end
                               ? std::strtod(json.c_str() + value + key.size(), nullptr)
                               : 0.0;
    rows.emplace_back(std::move(name), speedup);
    at = close;
  }
  return rows;
}

/// Writes `json` to args.out_path, then runs the regression gate when
/// --check-regression was given.  Returns the process exit code: 1 when the
/// baseline cannot be read or lists no row, when a baseline row was not
/// measured by this run or has no positive speedup, or when a measured
/// speedup falls below baseline / factor.
int finish_json_mode(const JsonModeArgs& args, const std::string& json,
                     const std::vector<BenchRow>& rows) {
  std::ofstream out(args.out_path);
  out << json;
  out.close();
  std::cout << "wrote " << args.out_path << "\n";
  if (args.check_factor <= 0.0) return 0;

  std::ifstream in(args.baseline_path);
  if (!in.good()) {
    std::cerr << "baseline missing: " << args.baseline_path << "\n";
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const auto baseline = baseline_rows(buf.str());
  if (baseline.empty()) {
    std::cerr << "baseline lists no rows: " << args.baseline_path << "\n";
    return 1;
  }
  int failures = 0;
  for (const auto& [name, expected] : baseline) {
    const auto row = std::find_if(rows.begin(), rows.end(),
                                  [&](const BenchRow& r) { return r.name == name; });
    if (row == rows.end()) {
      std::cerr << "UNCHECKED " << name << ": in the baseline but not measured\n";
      ++failures;
      continue;
    }
    if (!(expected > 0.0)) {
      std::cerr << "UNCHECKED " << name << ": baseline speedup is not a positive number\n";
      ++failures;
      continue;
    }
    const double floor = expected / args.check_factor;
    if (row->speedup() < floor) {
      std::cerr << "REGRESSION " << name << ": speedup " << row->speedup()
                << "x below floor " << floor << "x (baseline " << expected << "x / factor "
                << args.check_factor << ")\n";
      ++failures;
    }
  }
  if (failures > 0) return 1;
  std::cout << "regression check passed (factor " << args.check_factor << ")\n";
  return 0;
}

std::string results_json(const std::string& bench, const std::string& workload,
                         const char* fast_key, const std::vector<BenchRow>& rows) {
  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"" << bench << "\",\n"
       << "  \"workload\": " << workload << ",\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json << "    {\"name\": \"" << rows[i].name << "\", \"" << fast_key
         << "\": " << rows[i].fast_ms << ", \"reference_ms\": " << rows[i].reference_ms
         << ", \"speedup_vs_reference\": " << rows[i].speedup() << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  return json.str();
}

/// Wall time of one `run()`, in ms.
template <typename Run>
double elapsed_ms(Run&& run) {
  const auto t0 = std::chrono::steady_clock::now();
  run();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// ---------------------------------------------------------------------------
// --json mode: tree-training perf harness.

struct TreeBenchCase {
  const char* label;       // row name in the JSON (unique)
  const char* classifier;  // registry name
  ParamMap params;         // overrides on top of registry defaults
};

/// Registry defaults for the whole family, plus an all-features forest:
/// with sqrt feature sampling the reference builder only sorts ~sqrt(d)
/// small columns per node, so the presort win there is bounded by the
/// shared fold/partition work; the all-features row shows the kernel's
/// effect when split scans touch every column (the boosting/full-tree
/// regime).  See DESIGN.md "Training kernels".
const std::vector<TreeBenchCase>& tree_cases() {
  static const std::vector<TreeBenchCase> cases = {
      {"decision_tree", "decision_tree", {}},
      {"random_forest", "random_forest", {}},
      {"random_forest_all_features",
       "random_forest",
       {{"max_features", std::string("all")}}},
      {"bagging", "bagging", {}},
      {"boosted_trees", "boosted_trees", {}},
      {"decision_jungle", "decision_jungle", {}},
  };
  return cases;
}

Dataset tree_workload() {
  MakeClassificationOptions opt;
  opt.n_samples = 2000;
  opt.n_features = 30;
  opt.n_informative = 10;
  opt.n_redundant = 6;
  opt.n_clusters_per_class = 2;
  opt.class_sep = 1.0;
  return make_classification(opt, 42);
}

int run_json_mode(const std::vector<std::string>& args) {
  const auto parsed = parse_json_mode_args(args, "BENCH_tree_training.json");
  if (!parsed) return 1;

  const Dataset ds = tree_workload();
  std::vector<BenchRow> rows;
  for (const auto& c : tree_cases()) {
    // Best of 5 library fits and of 3 oracle fits; construction and
    // teardown stay outside the timed region.
    BenchRow row{c.label, 1e300, 1e300};
    for (int r = 0; r < 5; ++r) {
      auto clf = make_classifier(c.classifier, c.params, 1);
      row.fast_ms = std::min(row.fast_ms, elapsed_ms([&] { clf->fit(ds.x(), ds.y()); }));
    }
    for (int r = 0; r < 3; ++r) {
      oracle::ReferenceTreeFit reference;
      row.reference_ms = std::min(row.reference_ms, elapsed_ms([&] {
        reference = oracle::reference_tree_classifier_fit(c.classifier, c.params, 1, ds.x(),
                                                          ds.y());
      }));
    }
    rows.push_back(row);
    std::cout << row.name << ": fast " << row.fast_ms << " ms, reference "
              << row.reference_ms << " ms, speedup " << row.speedup() << "x\n";
  }

  std::ostringstream workload;
  workload << "{\"n_samples\": " << ds.n_samples() << ", \"n_features\": " << ds.n_features()
           << "}";
  return finish_json_mode(*parsed, results_json("tree_training", workload.str(), "fast_ms", rows),
                          rows);
}

// ---------------------------------------------------------------------------
// --json-predict mode: batched-prediction perf harness.

/// Models timed by the predict harness.  The tree-ensemble rows gate the
/// FlatForest walk, knn/rbf_svm gate the blocked distance kernels, the rest
/// document the linear/MLP matvec path.
const std::vector<TreeBenchCase>& predict_cases() {
  static const std::vector<TreeBenchCase> cases = {
      {"decision_tree", "decision_tree", {}},
      {"random_forest", "random_forest", {}},
      {"bagging", "bagging", {}},
      {"boosted_trees", "boosted_trees", {}},
      {"decision_jungle", "decision_jungle", {}},
      {"knn", "knn", {}},
      {"rbf_svm", "rbf_svm", {}},
      {"mlp", "mlp", {}},
      {"logistic_regression", "logistic_regression", {}},
  };
  return cases;
}

/// Query batch for the predict harness: same feature geometry as
/// tree_workload(), different seed so queries are not training points.
Dataset predict_queries() {
  MakeClassificationOptions opt;
  opt.n_samples = 4000;
  opt.n_features = 30;
  opt.n_informative = 10;
  opt.n_redundant = 6;
  opt.n_clusters_per_class = 2;
  opt.class_sep = 1.0;
  return make_classification(opt, 43);
}

int run_predict_json_mode(const std::vector<std::string>& args) {
  const auto parsed = parse_json_mode_args(args, "BENCH_predict.json");
  if (!parsed) return 1;

  const Dataset train = tree_workload();
  const Dataset queries = predict_queries();
  std::vector<BenchRow> rows;
  for (const auto& c : predict_cases()) {
    auto clf = make_classifier(c.classifier, c.params, 1);
    clf->fit(train.x(), train.y());
    const oracle::ReferencePredictor reference(*clf);  // parses outside the timers
    // Best of 5 library predicts (after one warm-up pass that populates
    // scratch buffers) and of 3 oracle predicts.
    BenchRow row{c.label, 1e300, 1e300};
    benchmark::DoNotOptimize(clf->predict(queries.x()));
    for (int r = 0; r < 5; ++r) {
      std::vector<int> labels;
      row.fast_ms = std::min(row.fast_ms,
                             elapsed_ms([&] { labels = clf->predict(queries.x()); }));
      benchmark::DoNotOptimize(labels);
    }
    for (int r = 0; r < 3; ++r) {
      std::vector<int> labels;
      row.reference_ms = std::min(row.reference_ms,
                                  elapsed_ms([&] { labels = reference.predict(queries.x()); }));
      benchmark::DoNotOptimize(labels);
    }
    rows.push_back(row);
    std::cout << row.name << ": flat " << row.fast_ms << " ms, reference "
              << row.reference_ms << " ms, speedup " << row.speedup() << "x\n";
  }

  std::ostringstream workload;
  workload << "{\"n_train\": " << train.n_samples() << ", \"n_queries\": " << queries.n_samples()
           << ", \"n_features\": " << train.n_features() << "}";
  return finish_json_mode(*parsed, results_json("predict", workload.str(), "flat_ms", rows),
                          rows);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      std::vector<std::string> args(argv + 1, argv + argc);
      return run_json_mode(args);
    }
    if (std::string(argv[i]) == "--json-predict") {
      std::vector<std::string> args(argv + 1, argv + argc);
      return run_predict_json_mode(args);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
