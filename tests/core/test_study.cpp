// End-to-end integration of the Study API on a tiny quick-mode corpus.
// This exercises the full pipeline: corpus -> platforms -> measurements ->
// every experiment aggregation.  Also the one parser of the campaign knobs,
// StudyOptions::from_flags.
#include "core/study.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "platform/service.h"
#include "util/cli.h"

namespace mlaas {
namespace {

StudyOptions tiny_options(const std::string& tag) {
  StudyOptions opt;
  opt.seed = 7;
  opt.quick = true;
  opt.verbose = false;
  opt.threads = 2;
  // The cache is intentionally kept between test processes: the measurement
  // table is deterministic in (seed, options), so the first test computes it
  // and every later ctest invocation loads it.
  opt.cache_path_override = ::testing::TempDir() + "/study_cache_" + tag + ".tsv";
  return opt;
}

class StudyIntegration : public ::testing::Test {
 protected:
  static Study& study() {
    static Study instance(tiny_options("shared"));
    return instance;
  }
};

TEST_F(StudyIntegration, CorpusAndPlatformsBuilt) {
  EXPECT_EQ(study().corpus().size(), 24u);
  EXPECT_EQ(study().platforms().size(), 7u);
  EXPECT_EQ(study().platform_order().size(), 7u);
}

TEST_F(StudyIntegration, MeasurementsCoverEverything) {
  const auto& table = study().measurements();
  EXPECT_EQ(table.platforms().size(), 7u);
  EXPECT_EQ(table.dataset_ids().size(), 24u);
  EXPECT_GT(table.size(), 24u * 7u);
}

TEST_F(StudyIntegration, BaselineAndOptimizedSummaries) {
  const auto base = study().baseline();
  const auto opt = study().optimized();
  EXPECT_EQ(base.size(), 7u);
  EXPECT_EQ(opt.size(), 7u);
  // Optimized >= baseline for every platform.
  for (const auto& o : opt) {
    for (const auto& b : base) {
      if (o.platform == b.platform) {
        EXPECT_GE(o.avg.f_score, b.avg.f_score - 1e-9) << o.platform;
      }
    }
  }
}

TEST_F(StudyIntegration, HighComplexityPlatformsWinOptimized) {
  // The paper's core finding (Fig 4): Microsoft/Local dominate the
  // optimized comparison; black boxes sit at the bottom.
  const auto opt = study().optimized();
  double local_f = 0, microsoft_f = 0, google_f = 0, abm_f = 0;
  for (const auto& s : opt) {
    if (s.platform == "Local") local_f = s.avg.f_score;
    if (s.platform == "Microsoft") microsoft_f = s.avg.f_score;
    if (s.platform == "Google") google_f = s.avg.f_score;
    if (s.platform == "ABM") abm_f = s.avg.f_score;
  }
  EXPECT_GT(local_f, google_f);
  EXPECT_GT(local_f, abm_f);
  EXPECT_GT(microsoft_f, google_f);
}

TEST_F(StudyIntegration, ControlImprovementsNonNegativeAndClfLargest) {
  const auto improvements = study().control_improvements_fig5();
  EXPECT_EQ(improvements.size(), 15u);  // 5 platforms x 3 dimensions
  double clf_total = 0, feat_total = 0, para_total = 0;
  for (const auto& ci : improvements) {
    if (!ci.supported) continue;
    EXPECT_GE(ci.relative_improvement, -1e-9);
    if (ci.dimension == ControlDimension::kClf) clf_total += ci.relative_improvement;
    if (ci.dimension == ControlDimension::kFeat) feat_total += ci.relative_improvement;
    if (ci.dimension == ControlDimension::kPara) para_total += ci.relative_improvement;
  }
  EXPECT_GT(clf_total, para_total);  // §4.2 headline
}

TEST_F(StudyIntegration, VariationSummaries) {
  const auto fig6 = study().variation_fig6();
  EXPECT_EQ(fig6.size(), 7u);
  // Black boxes have a single config -> zero range; Local has the most.
  double google_range = 1, local_range = 0;
  for (const auto& v : fig6) {
    if (v.platform == "Google") google_range = v.range();
    if (v.platform == "Local") local_range = v.range();
  }
  EXPECT_NEAR(google_range, 0.0, 1e-12);
  EXPECT_GT(local_range, 0.02);
}

TEST_F(StudyIntegration, SubsetCurvesMonotone) {
  for (const auto& curve : study().subset_curves()) {
    for (std::size_t i = 1; i < curve.points.size(); ++i) {
      EXPECT_GE(curve.points[i].expected_best_f,
                curve.points[i - 1].expected_best_f - 1e-9)
          << curve.platform;
    }
  }
}

TEST_F(StudyIntegration, Table4SharesSumToOne) {
  for (const bool optimized : {false, true}) {
    const auto shares = study().table4("Local", optimized);
    double total = 0;
    for (const auto& [clf, share] : shares) total += share;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST_F(StudyIntegration, NaiveStrategyRuns) {
  const auto naive = study().naive_strategy();
  EXPECT_EQ(naive.size(), 24u);
  for (const auto& r : naive) {
    EXPECT_GE(r.naive_f, std::max(r.lr_f, r.dt_f) - 1e-12);
  }
}

TEST(StudyOptionsTest, QuickModeShrinksCorpus) {
  StudyOptions opt;
  opt.quick = true;
  EXPECT_EQ(opt.corpus_options().n_datasets, 24u);
  EXPECT_LT(opt.corpus_options().max_samples, 1000u);
  EXPECT_NE(opt.cache_path().find("quick_"), std::string::npos);
}

TEST(StudyOptionsTest, CachePathEncodesSeedAndScale) {
  StudyOptions opt;
  opt.seed = 9;
  opt.scale = 2.0;
  EXPECT_NE(opt.cache_path().find("seed9"), std::string::npos);
  EXPECT_NE(opt.cache_path().find("scale2"), std::string::npos);
}

TEST(StudyOptions, CachePathDistinguishesScalesBeyondSixDigits) {
  // Two quick studies whose scales print alike at 6 digits build different
  // corpora; they used to share one cache path.
  StudyOptions a, b;
  a.quick = b.quick = true;
  a.scale = 0.3333333;
  b.scale = 0.33333334;
  EXPECT_NE(a.cache_path(), b.cache_path());
  // Scales that read back at 6 digits keep their path bytes.
  a.scale = 0.25;
  EXPECT_EQ(a.cache_path(), "quick_mlaas_measurements_seed42_scale0.25.tsv");
  a.scale = 1.0 / 3.0;
  EXPECT_EQ(a.cache_path(), "quick_mlaas_measurements_seed42_scale0.33333333333333331.tsv");
}


// ---- StudyOptions::from_flags ----

// Clears the MLAAS_* flag defaults for each test and restores them after,
// so a variable exported in the caller's shell cannot leak in.
class StudyFlags : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name : kEnv) {
      const char* value = std::getenv(name);
      saved_.emplace_back(name, value ? std::optional<std::string>(value) : std::nullopt);
      unsetenv(name);
    }
  }
  void TearDown() override {
    for (const auto& [name, value] : saved_) {
      if (value) setenv(name, value->c_str(), 1);
      else unsetenv(name);
    }
  }

  static StudyOptions parse(std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    return StudyOptions::from_flags(CliFlags(static_cast<int>(args.size()), args.data()));
  }

  static void expect_rejected(std::vector<const char*> args, const std::string& needle) {
    try {
      parse(args);
      ADD_FAILURE() << "accepted; expected an error naming " << needle;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  }

  static constexpr const char* kEnv[] = {"MLAAS_SEED", "MLAAS_SCALE", "MLAAS_FAULT_RATE"};
  std::vector<std::pair<const char*, std::optional<std::string>>> saved_;
};

TEST_F(StudyFlags, ParsesAll) {
  const StudyOptions opt = parse({"--seed", "5", "--scale", "0.5", "--quick"});
  EXPECT_EQ(opt.seed, 5u);
  EXPECT_DOUBLE_EQ(opt.scale, 0.5);
  EXPECT_TRUE(opt.quick);
  EXPECT_EQ(opt.schedule, Schedule::kDynamic);  // default
}

TEST_F(StudyFlags, NegativeThreadsRejectedAtParseTime) {
  // The historical crash: --threads -1 passed through a size_t cast and
  // asked the pool for ~2^64 workers.  It must die here, with a usage
  // error, before any campaign machinery runs.
  expect_rejected({"--threads=-1"}, "--threads");
  expect_rejected({"--threads=-1000000"}, "--threads");
}

TEST_F(StudyFlags, ZeroThreadsMeansHardware) {
  EXPECT_EQ(parse({"--threads", "0"}).threads, 0);
}

TEST_F(StudyFlags, ScheduleValidated) {
  EXPECT_EQ(parse({"--schedule", "static"}).schedule, Schedule::kStatic);
  expect_rejected({"--schedule", "roundrobin"}, "--schedule");
}

TEST_F(StudyFlags, EmptyArgvYieldsDefaults) {
  const StudyOptions opt = parse({});
  const StudyOptions def;
  EXPECT_EQ(opt.seed, def.seed);
  EXPECT_EQ(opt.scale, def.scale);
  EXPECT_EQ(opt.quick, def.quick);
  EXPECT_EQ(opt.threads, def.threads);
  EXPECT_EQ(opt.schedule, def.schedule);
  EXPECT_EQ(opt.cache_path_override, def.cache_path_override);
  EXPECT_EQ(opt.verbose, def.verbose);
  EXPECT_EQ(opt.fault_rate, def.fault_rate);
  EXPECT_EQ(opt.quota_profile, def.quota_profile);
  EXPECT_EQ(opt.retry_budget, def.retry_budget);
  EXPECT_EQ(opt.chaos_profile, def.chaos_profile);
  EXPECT_EQ(opt.breaker.enabled, def.breaker.enabled);
  EXPECT_EQ(opt.breaker.failure_threshold, def.breaker.failure_threshold);
  EXPECT_EQ(opt.breaker.cooldown_seconds, def.breaker.cooldown_seconds);
  EXPECT_EQ(opt.breaker.max_probes, def.breaker.max_probes);
  EXPECT_EQ(opt.jitter, def.jitter);
  EXPECT_EQ(opt.resume, def.resume);
  EXPECT_EQ(opt.trace, def.trace);
}

TEST_F(StudyFlags, EachBadValueNamesItsFlag) {
  const std::vector<std::pair<std::vector<const char*>, std::string>> cases = {
      {{"--seed", "7abc"}, "--seed"},
      {{"--scale", "0"}, "--scale"},
      {{"--scale", "inf"}, "--scale"},
      {{"--scale", "nan"}, "--scale"},
      {{"--quick", "on"}, "--quick"},
      {{"--threads", "4294967297"}, "--threads"},  // would wrap to 1 as an int
      {{"--fault-rate", "1.5"}, "--fault-rate"},
      {{"--fault-rate", "-0.1"}, "--fault-rate"},
      {{"--retry-budget", "0"}, "--retry-budget"},
      {{"--breakers", "on"}, "--breakers"},
      {{"--breaker-threshold", "0"}, "--breaker-threshold"},
      {{"--breaker-cooldown", "-1"}, "--breaker-cooldown"},
      {{"--breaker-cooldown", "inf"}, "--breaker-cooldown"},
      {{"--breaker-probes", "-1"}, "--breaker-probes"},
      {{"--jitter", "maybe"}, "--jitter"},
      {{"--resume", "2"}, "--resume"},
      {{"--fresh", "x"}, "--fresh"},
  };
  for (const auto& [args, flag] : cases) expect_rejected(args, flag);
}

TEST_F(StudyFlags, EnvDefaultsApplyAndFlagsOverrideThem) {
  setenv("MLAAS_SEED", "9", 1);
  setenv("MLAAS_SCALE", "0.25", 1);
  setenv("MLAAS_FAULT_RATE", "0.2", 1);
  const StudyOptions from_env = parse({});
  EXPECT_EQ(from_env.seed, 9u);
  EXPECT_DOUBLE_EQ(from_env.scale, 0.25);
  EXPECT_DOUBLE_EQ(from_env.fault_rate, 0.2);
  const StudyOptions from_flags = parse({"--seed", "3", "--scale", "2", "--fault-rate", "0"});
  EXPECT_EQ(from_flags.seed, 3u);
  EXPECT_DOUBLE_EQ(from_flags.scale, 2.0);
  EXPECT_DOUBLE_EQ(from_flags.fault_rate, 0.0);
}

TEST_F(StudyFlags, MalformedEnvValueNamesTheVariable) {
  for (const auto& [name, value] : std::vector<std::pair<const char*, const char*>>{
           {"MLAAS_SEED", "abc"}, {"MLAAS_SCALE", "2x"}, {"MLAAS_FAULT_RATE", "0.1x"},
           {"MLAAS_SEED", ""}}) {
    setenv(name, value, 1);
    // The variable is parsed even when its flag is given.
    expect_rejected({}, name);
    expect_rejected({"--seed", "1", "--scale", "1", "--fault-rate", "0"}, name);
    unsetenv(name);
  }
}

TEST_F(StudyFlags, UnknownProfileNamesRejected) {
  expect_rejected({"--quota-profile", "typo"}, "--quota-profile");
  expect_rejected({"--chaos-profile", "typo"}, "--chaos-profile");
  for (const auto& name : quota_profile_names()) {
    EXPECT_EQ(parse({"--quota-profile", name.c_str()}).quota_profile, name);
  }
  for (const auto& name : chaos_profile_names()) {
    EXPECT_EQ(parse({"--chaos-profile", name.c_str()}).chaos_profile, name);
  }
}

TEST_F(StudyFlags, LeavesOtherFlagsToTheCaller) {
  std::vector<const char*> argv{"prog", "--seed", "3", "--verbose"};
  const CliFlags flags(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(StudyOptions::from_flags(flags).seed, 3u);
  try {
    flags.reject_unread();
    FAIL() << "--verbose is not a campaign knob";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--verbose"), std::string::npos) << e.what();
  }
}

TEST_F(StudyFlags, UsageListsExactlyTheFlagsItReads) {
  // The --help text of both front ends: every flag of a full argv is listed,
  // and every listed flag is one from_flags reads.
  const std::vector<const char*> argv = {
      "prog", "--seed", "7", "--scale", "0.75", "--quick", "--threads", "2",
      "--schedule", "static", "--fault-rate", "0.1", "--quota-profile", "strict",
      "--retry-budget", "3", "--chaos-profile", "storm", "--breakers",
      "--breaker-threshold", "4", "--breaker-cooldown", "90.5", "--breaker-probes", "1",
      "--jitter", "--resume", "--fresh"};
  const CliFlags flags(static_cast<int>(argv.size()), argv.data());
  StudyOptions::from_flags(flags);
  EXPECT_NO_THROW(flags.reject_unread());
  std::set<std::string> given;
  for (const char* arg : argv) {
    if (std::string(arg).rfind("--", 0) == 0) given.insert(arg);
  }
  std::set<std::string> listed;
  std::istringstream usage(StudyOptions::flags_usage());
  const std::regex flag("--[a-z-]+");
  for (std::string line; std::getline(usage, line);) {
    const std::string column = line.substr(0, line.find("  ", 2));  // flag column
    for (std::sregex_iterator it(column.begin(), column.end(), flag), end; it != end; ++it) {
      listed.insert(it->str());
    }
  }
  EXPECT_EQ(listed, given);
}

TEST_F(StudyFlags, FingerprintOfFullArgvIsPinned) {
  // The literal up to ` data=` was produced by the pre-from_flags parser;
  // the corpus digest (here of the empty corpus) is appended since.
  const MeasurementOptions m =
      parse({"--seed", "7", "--scale", "0.75", "--threads", "2", "--schedule", "static",
             "--fault-rate", "0.1", "--quota-profile", "strict", "--retry-budget", "3",
             "--chaos-profile", "storm", "--breakers", "--breaker-threshold", "4",
             "--breaker-cooldown", "90.5", "--breaker-probes", "1", "--jitter", "--fresh"})
          .measurement_options();
  EXPECT_EQ(measurement_fingerprint({}, make_all_platforms(), m),
            "mlaas-measurements-v2 corpus=0 "
            "platforms=Google,ABM,Amazon,BigML,PredictionIO,Microsoft,Local seed=7 "
            "scale=0.75 para=12 joint=40 test_fraction=0.3 fault=0.1 profile=strict "
            "retries=3 chaos=storm breaker=4/90.5/1 jitter=1 data=0000000000000000");
  EXPECT_EQ(m.threads, 2);
  EXPECT_EQ(m.schedule, Schedule::kStatic);
  EXPECT_FALSE(m.campaign.resume);
  EXPECT_TRUE(m.verbose);
}

}  // namespace
}  // namespace mlaas
