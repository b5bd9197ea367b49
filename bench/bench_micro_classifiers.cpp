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
// JSON-mode flags (shared by --json and --json-predict): --out FILE
// (default BENCH_tree_training.json / BENCH_predict.json), --baseline FILE
// and --check-regression F, the gate of bench_gate.h on each row's
// speedup_vs_reference.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_gate.h"
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
// JSON modes: the timed rows both harnesses report and gate.

struct BenchRow {
  std::string name;
  double fast_ms = 0.0;
  double reference_ms = 0.0;
  double speedup() const { return fast_ms > 0.0 ? reference_ms / fast_ms : 0.0; }
};

/// The (name, speedup) rows the regression gate checks.
std::vector<std::pair<std::string, double>> speedups(const std::vector<BenchRow>& rows) {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& r : rows) out.emplace_back(r.name, r.speedup());
  return out;
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
                          "speedup_vs_reference", speedups(rows));
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
                          "speedup_vs_reference", speedups(rows));
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
