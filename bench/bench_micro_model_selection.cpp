// Perf-regression harness for the model-selection engine: times grid_search
// over the default tree-family grid with cross-config state reuse (shared
// FoldPlan + TrainContext) against the pre-engine per-config cost model
// (reuse off: every config re-partitions folds, re-copies subsets and
// re-presorts), and the same search at 4 worker threads against 1.
//
// Both comparisons are exact-equivalence: the harness first verifies the
// winner and score are identical across every mode, then times them.
//
// Flags: --out FILE (default BENCH_model_selection.json), --baseline FILE
// and --check-regression F, the gate of bench_gate.h on each row's
// speedup_vs_reference.
//
// Note: the parallel row's measured scaling is bounded by the host's core
// count (reported as host_threads in the JSON); the committed baseline
// encodes what the baseline host could show.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_gate.h"
#include "data/generators.h"
#include "ml/model_selection/grid_search.h"

namespace {

using namespace mlaas;

/// The tuning workload: a non-linear problem big enough that fold
/// materialization and per-fit presorts are real costs.
Dataset workload() {
  MakeClassificationOptions opt;
  opt.n_samples = 3000;
  opt.n_features = 24;
  opt.n_informative = 10;
  opt.n_redundant = 6;
  opt.n_clusters_per_class = 2;
  opt.class_sep = 1.0;
  return make_classification(opt, 42);
}

/// Platform-style decision-tree grid: depth under the paper's sweep rule plus
/// the local-sklearn feature-sampling axis (max_features is what that
/// platform's DT surface sweeps).  3 depths x 3 feature policies = 9 configs,
/// 5-fold CV each.
ClassifierGridSpec tree_grid() {
  ClassifierGridSpec spec;
  spec.classifier = "decision_tree";
  spec.params = {ParamSpec::integer("max_depth", 4, 1, 8),
                 ParamSpec::categorical("max_features", {"all", "sqrt", "log2"})};
  return spec;
}

GridSearchOptions search_options(bool reuse, std::size_t threads) {
  GridSearchOptions options;
  options.cv_folds = 5;
  options.reuse = reuse;
  options.threads = threads;
  return options;
}

/// Best-of-`repeats` wall time of one full grid_search, in ms.
double time_search_ms(const ClassifierGridSpec& spec, const Dataset& ds,
                      const GridSearchOptions& options, int repeats) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const GridSearchResult result = grid_search(spec, ds, options, 7);
    const auto t1 = std::chrono::steady_clock::now();
    if (result.n_configs == 0) std::abort();  // keep the search observable
    best = std::min(best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

struct Row {
  std::string name;
  double fast_ms = 0.0;
  double reference_ms = 0.0;
  double speedup() const { return fast_ms > 0.0 ? reference_ms / fast_ms : 0.0; }
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_json_mode_args(std::vector<std::string>(argv + 1, argv + argc),
                                         "BENCH_model_selection.json");
  if (!args) return 1;

  const Dataset ds = workload();
  const ClassifierGridSpec spec = tree_grid();

  // Exact-equivalence gate before any timing: every mode must produce the
  // same winner and the same score, to the bit.
  const GridSearchResult reference = grid_search(spec, ds, search_options(false, 1), 7);
  for (const bool reuse : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const GridSearchResult run = grid_search(spec, ds, search_options(reuse, threads), 7);
      if (run.best_params.to_string() != reference.best_params.to_string() ||
          run.best_cv_f_score != reference.best_cv_f_score) {
        std::cerr << "EQUIVALENCE FAILURE at reuse=" << reuse << " threads=" << threads
                  << ": " << run.best_params.to_string() << " ("
                  << run.best_cv_f_score << ") vs " << reference.best_params.to_string()
                  << " (" << reference.best_cv_f_score << ")\n";
        return 2;
      }
    }
  }
  std::cout << "equivalence check passed: winner " << reference.best_params.to_string()
            << " f=" << reference.best_cv_f_score << " in every mode\n";

  std::vector<Row> rows;
  {
    // State reuse at one thread: shared folds + shared presorts vs the
    // pre-engine per-config rebuild.
    Row row;
    row.name = "grid_search/decision_tree";
    row.fast_ms = time_search_ms(spec, ds, search_options(true, 1), 5);
    row.reference_ms = time_search_ms(spec, ds, search_options(false, 1), 3);
    rows.push_back(row);
  }
  {
    // Parallel scaling on top of reuse: 4 workers vs 1 (bounded by host
    // cores; see header note).
    Row row;
    row.name = "grid_search/decision_tree_threads4";
    row.fast_ms = time_search_ms(spec, ds, search_options(true, 4), 5);
    row.reference_ms = rows[0].fast_ms;
    rows.push_back(row);
  }
  for (const Row& row : rows) {
    std::cout << row.name << ": fast " << row.fast_ms << " ms, reference "
              << row.reference_ms << " ms, speedup " << row.speedup() << "x\n";
  }

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"model_selection\",\n"
       << "  \"workload\": {\"n_samples\": " << ds.n_samples()
       << ", \"n_features\": " << ds.n_features()
       << ", \"n_configs\": " << reference.n_configs << ", \"cv_folds\": 5},\n"
       << "  \"host_threads\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json << "    {\"name\": \"" << rows[i].name << "\", \"fast_ms\": " << rows[i].fast_ms
         << ", \"reference_ms\": " << rows[i].reference_ms
         << ", \"speedup_vs_reference\": " << rows[i].speedup() << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::vector<std::pair<std::string, double>> speedups;
  for (const Row& row : rows) speedups.emplace_back(row.name, row.speedup());
  return finish_json_mode(*args, json.str(), "speedup_vs_reference", speedups);
}
