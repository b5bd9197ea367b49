// Linear vs non-linear classifier families (Table 5, Figure 11).
//
// Table 5 assigns the local library's classifiers to the linear family (LR,
// NB, Linear SVM, LDA) or the non-linear family (DT, RF, BST, KNN, BAG,
// MLP); Figure 11 shows that on CIRCLE the non-linear family dominates and
// on LINEAR (noisy) the linear family wins — the divergence the §6.2
// meta-predictor exploits.
#pragma once

#include <string>
#include <vector>

#include "eval/measurement.h"

namespace mlaas {

struct FamilyScores {
  std::vector<double> linear_f;     // F-scores of linear-family experiments
  std::vector<double> nonlinear_f;  // F-scores of non-linear-family experiments
};

/// Partition the table's rows by classifier family (rows with classifier
/// "auto" are skipped).
FamilyScores split_by_family(const MeasurementTable& table);

/// Run the local library's full configuration grid on one probe dataset and
/// return the family-partitioned F-scores (Figure 11's experiment).  The
/// cells run on a pool of `options.threads` workers (0 = hardware
/// concurrency); the scores are identical for every count.  Throws
/// std::invalid_argument for a negative count.
FamilyScores family_gap_on_probe(const Dataset& probe, const MeasurementOptions& options);

}  // namespace mlaas
