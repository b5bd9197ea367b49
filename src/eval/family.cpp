#include "eval/family.h"

#include <optional>

#include "ml/registry.h"
#include "platform/local_sklearn.h"
#include "util/thread_pool.h"

namespace mlaas {

FamilyScores split_by_family(const MeasurementTable& table) {
  FamilyScores scores;
  for (const auto& m : table.rows()) {
    if (!m.ok || m.classifier == "auto") continue;
    (classifier_is_linear(m.classifier) ? scores.linear_f : scores.nonlinear_f)
        .push_back(m.test.f_score);
  }
  return scores;
}

FamilyScores family_gap_on_probe(const Dataset& probe, const MeasurementOptions& options) {
  const std::size_t workers = options.pool_size("family_gap_on_probe");
  LocalSklearnPlatform local;
  const auto configs = enumerate_configs(local, options);
  // Every cell is seeded by (seed, probe, config key) and lands in its own
  // slot, so the rows are added in config order for any thread count.
  std::vector<std::optional<Measurement>> cells(configs.size());
  ThreadPool pool(workers);
  pool.parallel_for_dynamic(configs.size(), [&](std::size_t i) {
    cells[i] = measure_one(probe, local, configs[i], options);
  });
  MeasurementTable table;
  for (auto& m : cells) {
    if (m && m->ok) table.add(std::move(*m));
  }
  return split_by_family(table);
}

}  // namespace mlaas
