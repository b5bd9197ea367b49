#include "core/study.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "data/generators.h"
#include "platform/service.h"
#include "util/rng.h"

namespace mlaas {

namespace {

// An int-valued flag in [min, INT_MAX]; checked before the narrowing cast,
// which would otherwise wrap a large value into range.
int int_flag(const CliFlags& flags, const std::string& name, int def, int min) {
  const long long v = flags.int_or(name, def);
  if (v >= min && v <= INT_MAX) return static_cast<int>(v);
  throw std::invalid_argument("--" + name + " must be an integer in [" + std::to_string(min) +
                              ", " + std::to_string(INT_MAX) + "], got " + std::to_string(v));
}

}  // namespace

std::string profile_or(const CliFlags& flags, const std::string& name,
                       const std::string& def, const std::vector<std::string>& known) {
  std::string value = flags.get_or(name, def);
  if (std::find(known.begin(), known.end(), value) != known.end()) return value;
  throw std::invalid_argument("--" + name + ": unknown profile '" + value + "'");
}

BreakerOptions breaker_options_from_flags(const CliFlags& flags) {
  BreakerOptions b;
  b.enabled = flags.bool_or("breakers", b.enabled);
  b.failure_threshold = int_flag(flags, "breaker-threshold", b.failure_threshold, 1);
  b.cooldown_seconds = flags.double_or("breaker-cooldown", b.cooldown_seconds);
  if (!(b.cooldown_seconds >= 0.0) || !std::isfinite(b.cooldown_seconds)) {
    throw std::invalid_argument("--breaker-cooldown must be a finite value >= 0");
  }
  b.max_probes = int_flag(flags, "breaker-probes", b.max_probes, 0);
  return b;
}

StudyOptions StudyOptions::from_flags(const CliFlags& flags) {
  StudyOptions opt;
  if (const char* env = std::getenv("MLAAS_SEED")) {
    opt.seed = static_cast<std::uint64_t>(parse_int(env, "MLAAS_SEED"));
  }
  if (const char* env = std::getenv("MLAAS_SCALE")) opt.scale = parse_double(env, "MLAAS_SCALE");
  if (const char* env = std::getenv("MLAAS_FAULT_RATE")) {
    opt.fault_rate = parse_double(env, "MLAAS_FAULT_RATE");
  }
  opt.seed = static_cast<std::uint64_t>(flags.int_or("seed", static_cast<long long>(opt.seed)));
  opt.scale = flags.double_or("scale", opt.scale);
  if (!(opt.scale > 0.0) || !std::isfinite(opt.scale)) {
    throw std::invalid_argument("--scale (MLAAS_SCALE) must be a finite value > 0");
  }
  opt.quick = flags.bool_or("quick", opt.quick);
  opt.threads = int_flag(flags, "threads", opt.threads, 0);
  opt.schedule = parse_schedule(flags.get_or("schedule", to_string(opt.schedule)));
  opt.fault_rate = flags.double_or("fault-rate", opt.fault_rate);
  if (!(opt.fault_rate >= 0.0 && opt.fault_rate <= 1.0)) {
    throw std::invalid_argument("--fault-rate (MLAAS_FAULT_RATE) must be in [0, 1]");
  }
  opt.quota_profile = profile_or(flags, "quota-profile", opt.quota_profile, quota_profile_names());
  opt.retry_budget = int_flag(flags, "retry-budget", opt.retry_budget, 1);
  opt.chaos_profile = profile_or(flags, "chaos-profile", opt.chaos_profile, chaos_profile_names());
  opt.breaker = breaker_options_from_flags(flags);
  opt.jitter = flags.bool_or("jitter", opt.jitter);
  opt.resume = flags.bool_or("resume", opt.resume);
  if (flags.bool_or("fresh", false)) opt.resume = false;
  return opt;
}

std::string StudyOptions::flags_usage() {
  const StudyOptions d;
  const auto names = [](const std::vector<std::string>& all) {
    std::string joined;
    for (const auto& name : all) joined += (joined.empty() ? "" : "|") + name;
    return joined;
  };
  std::ostringstream out;
  const auto line = [&out](const char* flag, const std::string& text, const auto& def,
                           const char* env = "") {
    out << "  " << std::left << std::setw(24) << flag << text << " (" << env << std::boolalpha
        << def << ")\n";
  };
  line("--seed N", "corpus and campaign seed", d.seed, "$MLAAS_SEED, else ");
  line("--scale X", "grid and corpus scale, > 0", d.scale, "$MLAAS_SCALE, else ");
  line("--quick", "tiny corpus for smoke runs", d.quick);
  line("--threads N", "campaign workers, 0 = hardware concurrency", d.threads);
  line("--schedule S", "static|dynamic session dispatch", to_string(d.schedule));
  line("--fault-rate F", "transient fault rate in [0, 1]", d.fault_rate,
       "$MLAAS_FAULT_RATE, else ");
  line("--quota-profile P", names(quota_profile_names()), d.quota_profile);
  line("--retry-budget K", "attempts per request, >= 1", d.retry_budget);
  line("--chaos-profile P", names(chaos_profile_names()), d.chaos_profile);
  line("--breakers", "per-platform circuit breakers", d.breaker.enabled);
  line("--breaker-threshold N", "failures that open a breaker", d.breaker.failure_threshold);
  line("--breaker-cooldown S", "seconds before a half-open probe", d.breaker.cooldown_seconds);
  line("--breaker-probes N", "failed probes before latching open", d.breaker.max_probes);
  line("--jitter", "decorrelated retry-backoff jitter", d.jitter);
  line("--resume | --fresh", "resume from the campaign journal", d.resume);
  return out.str();
}

CorpusOptions StudyOptions::corpus_options() const {
  CorpusOptions c;
  c.seed = seed;
  c.scale = scale;
  if (quick) {
    c.n_datasets = 24;
    c.max_samples = 300;
    c.max_features = 16;
  }
  return c;
}

MeasurementOptions StudyOptions::measurement_options() const {
  MeasurementOptions m;
  m.seed = seed;
  m.scale = quick ? 0.5 : scale;
  m.threads = threads;
  m.schedule = schedule;
  m.verbose = verbose;
  m.trace = trace;
  m.campaign.fault_rate = fault_rate;
  m.campaign.quota_profile = quota_profile;
  m.campaign.retry_budget = retry_budget;
  m.campaign.chaos_profile = chaos_profile;
  m.campaign.breaker = breaker;
  m.campaign.jitter = jitter;
  m.campaign.resume = resume;
  return m;
}

std::string StudyOptions::cache_path() const {
  if (!cache_path_override.empty()) return cache_path_override;
  return (quick ? "quick_" : "") + default_cache_path(seed, scale);
}

Study::Study(StudyOptions options) : options_(std::move(options)) {}

const std::vector<Dataset>& Study::corpus() {
  if (!corpus_) corpus_ = build_corpus(options_.corpus_options());
  return *corpus_;
}

const std::vector<PlatformPtr>& Study::platforms() {
  if (platforms_.empty()) platforms_ = make_all_platforms();
  return platforms_;
}

std::vector<std::string> Study::platform_order() const { return platform_names(); }

void Study::ensure_measurements() {
  if (measurements_) return;
  const MeasurementTable full = run_or_load(corpus(), platforms(),
                                           options_.measurement_options(), options_.cache_path());
  measurements_ = full.succeeded();
  measurement_failures_ = full.failures();
}

const MeasurementTable& Study::measurements() {
  ensure_measurements();
  return *measurements_;
}

const MeasurementTable& Study::measurement_failures() {
  ensure_measurements();
  return *measurement_failures_;
}

std::vector<PlatformSummary> Study::baseline() { return baseline_summary(measurements()); }

std::vector<PlatformSummary> Study::optimized() { return optimized_summary(measurements()); }

std::vector<ControlImprovement> Study::control_improvements_fig5() {
  // Figure 5 excludes the fully automated platforms.
  return control_improvements(measurements(),
                              {"Amazon", "BigML", "PredictionIO", "Microsoft", "Local"});
}

std::vector<std::pair<std::string, double>> Study::table4(const std::string& platform,
                                                          bool optimized_params) {
  return classifier_win_shares(measurements(), platform, optimized_params);
}

std::vector<VariationSummary> Study::variation_fig6() {
  std::vector<VariationSummary> out;
  for (const auto& p : platform_order()) out.push_back(overall_variation(measurements(), p));
  return out;
}

std::vector<DimensionVariation> Study::variation_fig7() {
  return dimension_variations(measurements(),
                              {"Amazon", "BigML", "PredictionIO", "Microsoft", "Local"});
}

std::vector<SubsetCurve> Study::subset_curves() {
  std::vector<SubsetCurve> out;
  for (const auto& p : {"BigML", "PredictionIO", "Microsoft", "Local"}) {
    out.push_back(classifier_subset_curve(measurements(), p));
  }
  return out;
}

Dataset Study::circle_probe() const {
  return make_circle_probe(derive_seed(options_.seed, "circle"));
}

Dataset Study::linear_probe() const {
  return make_linear_probe(derive_seed(options_.seed, "linear"));
}

BoundaryMap Study::boundary(const std::string& platform, const Dataset& probe) {
  const PlatformPtr p = make_platform(platform);
  return probe_decision_boundary(*p, probe, derive_seed(options_.seed, "boundary-" + platform));
}

FamilyScores Study::family_gap(const Dataset& probe) {
  return family_gap_on_probe(probe, options_.measurement_options());
}

FamilyPredictorReport Study::family_predictors() {
  if (!family_report_) {
    family_report_ =
        train_family_predictors(measurements(), derive_seed(options_.seed, "family"));
  }
  return *family_report_;
}

std::vector<BlackBoxChoice> Study::blackbox_choices(const std::string& platform) {
  return predict_blackbox_choices(family_predictors(), measurements(), platform);
}

std::vector<NaiveResult> Study::naive_strategy() {
  if (!naive_) naive_ = run_naive_strategy(corpus(), options_.measurement_options());
  return *naive_;
}

NaiveComparison Study::naive_vs(const std::string& platform) {
  return compare_naive_vs_blackbox(naive_strategy(), blackbox_choices(platform),
                                   measurements(), platform);
}

}  // namespace mlaas
