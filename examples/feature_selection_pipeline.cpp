// Feature selection + grid search on a high-dimensional problem — the FEAT
// and PARA control dimensions of the paper, driven through the library API.
//
// Scenario: performance characterization from telemetry with hundreds of
// mostly-irrelevant counters (performance crisis fingerprinting, as in the
// paper's intro).  Filter feature selection first, then a cross-validated
// parameter grid for the classifier.
#include <iostream>

#include "data/generators.h"
#include "data/split.h"
#include "ml/feature/filters.h"
#include "ml/metrics.h"
#include "ml/model_selection/grid_search.h"
#include "ml/registry.h"
#include "util/table.h"

int main() {
  using namespace mlaas;

  // 200 telemetry counters, only 8 informative.
  const Dataset telemetry = make_sparse_linear(900, 200, 8, 0.05, 21);
  const auto split = train_test_split(telemetry, 0.3, 21);
  std::cout << "Telemetry: " << telemetry.n_samples() << " windows, "
            << telemetry.n_features() << " counters (8 informative)\n\n";

  // Baseline: logistic regression on all 200 counters.
  auto baseline = make_classifier("logistic_regression", {}, 1);
  baseline->fit(split.train.x(), split.train.y());
  const double baseline_f = f1_score(split.test.y(), baseline->predict(split.test.x()));

  TextTable t({"Filter method", "Kept", "Test F-score"});
  t.add_row({"(none)", "200", fmt(baseline_f)});

  for (const auto* method : {"f_classif", "mutual_info", "fisher", "pearson"}) {
    SelectKBest selector(method, 16);
    selector.fit(split.train.x(), split.train.y());
    const Matrix train_x = selector.transform(split.train.x());
    const Matrix test_x = selector.transform(split.test.x());
    auto clf = make_classifier("logistic_regression", {}, 1);
    clf->fit(train_x, split.train.y());
    t.add_row({method, "16", fmt(f1_score(split.test.y(), clf->predict(test_x)))});
  }
  std::cout << "FEAT dimension: filter selection before a fixed classifier\n" << t.str()
            << "\n";

  // PARA dimension: cross-validated grid over the paper's {D/100, D, 100D}
  // sweep for the regularization strength.
  ClassifierGridSpec spec;
  spec.classifier = "logistic_regression";
  spec.params = {
      ParamSpec::number("C", 1.0, 1e-4, 1e4),
      ParamSpec::categorical("penalty", {"l2", "l1"}),
  };
  const GridSearchResult result =
      grid_search(spec, split.train, GridSearchOptions{.cv_folds = 5}, 3);
  std::cout << "PARA dimension: grid search over " << result.n_configs
            << " configurations\n  best params: " << result.best_params.to_string()
            << "\n  cross-validated F: " << fmt(result.best_cv_f_score) << "\n";

  auto tuned = make_classifier("logistic_regression", result.best_params, 1);
  tuned->fit(split.train.x(), split.train.y());
  std::cout << "  held-out test F:   "
            << fmt(f1_score(split.test.y(), tuned->predict(split.test.x()))) << "\n";
  return 0;
}
