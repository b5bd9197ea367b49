// mlaas::Study — the public entry point of the library.
//
// A Study owns the corpus, the platform roster and the measurement table
// (computed once, cached on disk), and exposes each of the paper's
// experiments as a method.  Bench binaries and examples are thin wrappers
// over this class.
//
//   mlaas::StudyOptions opt;
//   mlaas::Study study(opt);
//   auto fig4 = study.optimized();            // Figure 4 / Table 3(b)
//   auto fig8 = study.subset_curves();        // Figure 8
//
// See DESIGN.md for the experiment-to-method index.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/corpus.h"
#include "eval/aggregate.h"
#include "eval/attribution.h"
#include "eval/boundary.h"
#include "eval/family.h"
#include "eval/family_predictor.h"
#include "eval/measurement.h"
#include "eval/naive_strategy.h"
#include "eval/subset_analysis.h"
#include "eval/variation.h"
#include "util/cli.h"

namespace mlaas {

/// The value of int flag `--name` (`def` when absent), checked to lie in
/// [min, INT_MAX] before the narrowing cast, which would otherwise wrap a
/// large value into range; throws std::invalid_argument naming the flag.
int int_flag(const CliFlags& flags, const std::string& name, int def, int min);

/// --breakers, --breaker-threshold, --breaker-cooldown and --breaker-probes,
/// with BreakerOptions{}'s defaults; shared by the campaign flags and
/// `mlaas_cli serve-bench`.  Throws std::invalid_argument naming the flag.
BreakerOptions breaker_options_from_flags(const CliFlags& flags);

/// The value of profile flag `--name` (`def` when absent), checked against
/// the `known` profile names; throws std::invalid_argument naming the flag.
/// Shared by the campaign flags and `mlaas_cli serve-bench`.
std::string profile_or(const CliFlags& flags, const std::string& name,
                       const std::string& def, const std::vector<std::string>& known);

struct StudyOptions {
  std::uint64_t seed = 42;
  double scale = 1.0;        // grid/corpus scaling knob (DESIGN.md)
  bool quick = false;        // tiny corpus for smoke runs
  /// Campaign and Figure 11 probe-grid workers; 0 = hardware concurrency,
  /// negative rejected.
  int threads = 0;
  /// Campaign session scheduler (see Schedule in eval/measurement.h).  Both
  /// schedules produce byte-identical tables.
  Schedule schedule = Schedule::kDynamic;
  /// Empty disables the on-disk measurement cache.
  std::string cache_path_override;
  bool verbose = true;
  /// Campaign transport envelope (service simulation): probability of a
  /// transient request fault, named quota profile and per-request retry
  /// budget.  See eval/measurement.h's CampaignOptions.
  double fault_rate = 0.0;
  std::string quota_profile = "default";
  int retry_budget = 6;
  /// Chaos fault schedule injected into every platform session ("none",
  /// "outages", "bursts", "latency", "storm"); see make_fault_plan.
  std::string chaos_profile = "none";
  /// Per-platform circuit breakers in the campaign driver (disabled by
  /// default): after `failure_threshold` consecutive cell failures the
  /// breaker opens and the remaining cells of the session are deferred
  /// (excluded from aggregation) unless a half-open probe after
  /// `cooldown_seconds` simulated seconds succeeds.
  BreakerOptions breaker;
  /// Decorrelated jitter on retry backoff (off by default: keeps campaigns
  /// bit-reproducible across library versions).
  bool jitter = false;
  /// Resume a crashed campaign from its write-ahead journal (on by
  /// default; set false to force a fresh run).
  bool resume = true;
  /// Record a deterministic end-to-end trace of the campaign (service
  /// spans, retry waits, breaker transitions; Chrome trace_event JSON via
  /// CampaignResult::trace).  Off by default; does not change any measured
  /// row, report byte, or cache fingerprint.
  bool trace = false;

  /// The campaign knobs every front end shares (flags_usage() lists them),
  /// read from `flags`; MLAAS_SEED, MLAAS_SCALE and MLAAS_FAULT_RATE, when
  /// set, are the defaults of their flags.  Throws std::invalid_argument
  /// naming the flag or variable; leaves flags.reject_unread() to the caller.
  static StudyOptions from_flags(const CliFlags& flags);
  /// The --help lines of those flags: each with its default (StudyOptions{}
  /// or the MLAAS_* variable) and, for a named value, the accepted names.
  static std::string flags_usage();

  CorpusOptions corpus_options() const;
  MeasurementOptions measurement_options() const;
  std::string cache_path() const;
};

class Study {
 public:
  explicit Study(StudyOptions options = {});

  const StudyOptions& options() const { return options_; }
  const std::vector<Dataset>& corpus();
  const std::vector<PlatformPtr>& platforms();
  std::vector<std::string> platform_order() const;  // complexity order

  /// Successful measurements (computed on first use; cached to disk).
  /// Cells that failed in the service campaign are excluded here — the way
  /// the paper excluded unreachable providers — and exposed separately.
  const MeasurementTable& measurements();
  /// Failure rows of the campaign (empty when fault_rate == 0 and no quota
  /// was exhausted).
  const MeasurementTable& measurement_failures();

  // ---- Experiments (paper table/figure index in DESIGN.md) ----
  std::vector<PlatformSummary> baseline();                      // Table 3(a)
  std::vector<PlatformSummary> optimized();                     // Fig 4 / Table 3(b)
  std::vector<ControlImprovement> control_improvements_fig5();  // Fig 5
  std::vector<std::pair<std::string, double>> table4(const std::string& platform,
                                                     bool optimized_params);
  std::vector<VariationSummary> variation_fig6();               // Fig 6
  std::vector<DimensionVariation> variation_fig7();             // Fig 7
  std::vector<SubsetCurve> subset_curves();                     // Fig 8

  Dataset circle_probe() const;                                 // Fig 9(a)
  Dataset linear_probe() const;                                 // Fig 9(b)
  BoundaryMap boundary(const std::string& platform, const Dataset& probe);  // Fig 10/13
  FamilyScores family_gap(const Dataset& probe);                // Fig 11 / Table 5
  FamilyPredictorReport family_predictors();                    // Fig 12 / §6.2
  std::vector<BlackBoxChoice> blackbox_choices(const std::string& platform);  // §6.2
  std::vector<NaiveResult> naive_strategy();                    // §6.3
  NaiveComparison naive_vs(const std::string& platform);        // Table 6 / Fig 14

 private:
  void ensure_measurements();

  StudyOptions options_;
  std::optional<std::vector<Dataset>> corpus_;
  std::vector<PlatformPtr> platforms_;
  std::optional<MeasurementTable> measurements_;
  std::optional<MeasurementTable> measurement_failures_;
  std::optional<FamilyPredictorReport> family_report_;
  std::optional<std::vector<NaiveResult>> naive_;
};

}  // namespace mlaas
