// Exact-equivalence property tests for the presort training kernel: it
// must produce byte-identical serialized models to the original per-node
// re-sorting builder (the test-only oracle in tests/oracle/tree_fit.h)
// across criteria, hessian modes, width/node/depth caps, feature sampling
// and random-split modes — for single trees and for every ensemble (whose
// per-tree loops share one TreeWorkspace and run bootstrap/feature-subset
// views through it, where the oracle materializes each view).  Columns that
// are constant on the training matrix, which the trainer flags and never
// binds, get their own cases: the oracle has no such skip.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "data/generators.h"
#include "ml/registry.h"
#include "ml/serialize.h"
#include "ml/tree/tree_model.h"
#include "tests/oracle/predict.h"
#include "tests/oracle/tree_fit.h"
#include "util/rng.h"

namespace mlaas {
namespace {

std::string serialized(const TreeModel& tree) {
  std::ostringstream out;
  tree.save(out);
  return out.str();
}

std::string serialized(const Classifier& clf) {
  std::ostringstream out;
  clf.save(out);
  return out.str();
}

Dataset workload(std::uint64_t seed, std::size_t n = 240, std::size_t d = 8) {
  MakeClassificationOptions opt;
  opt.n_samples = n;
  opt.n_features = d;
  opt.n_informative = 4;
  opt.n_redundant = 2;
  opt.flip_y = 0.05;
  return make_classification(opt, seed);
}

void expect_tree_equivalence(const Matrix& x, const std::vector<double>& targets,
                             const std::vector<double>& hessians,
                             const TreeOptions& opt, const std::string& label) {
  TreeModel fast;
  fast.fit(x, targets, hessians, opt);
  TreeModel reference;
  oracle::reference_fit_tree(reference, x, targets, hessians, opt);

  ASSERT_EQ(fast.node_count(), reference.node_count()) << label;
  // Node-for-node equality first (better failure messages), then bytes.
  const auto& fn = fast.nodes();
  const auto& rn = reference.nodes();
  for (std::size_t i = 0; i < fn.size(); ++i) {
    EXPECT_EQ(fn[i].feature, rn[i].feature) << label << " node " << i;
    EXPECT_EQ(fn[i].threshold, rn[i].threshold) << label << " node " << i;
    EXPECT_EQ(fn[i].left, rn[i].left) << label << " node " << i;
    EXPECT_EQ(fn[i].right, rn[i].right) << label << " node " << i;
    EXPECT_EQ(fn[i].value, rn[i].value) << label << " node " << i;
    EXPECT_EQ(fn[i].n_samples, rn[i].n_samples) << label << " node " << i;
  }
  EXPECT_EQ(serialized(fast), serialized(reference)) << label;
}

TEST(TreeTrainerEquivalence, ClassificationCriteriaAndCaps) {
  for (const std::uint64_t seed : {1u, 7u, 23u}) {
    const Dataset ds = workload(seed);
    std::vector<double> targets(ds.n_samples());
    for (std::size_t i = 0; i < targets.size(); ++i) targets[i] = ds.y()[i];

    for (const SplitCriterion criterion :
         {SplitCriterion::kGini, SplitCriterion::kEntropy}) {
      for (const std::size_t max_depth : {0ul, 3ul, 9ul}) {
        for (const std::size_t max_features : {0ul, 2ul, 5ul}) {
          TreeOptions opt;
          opt.criterion = criterion;
          opt.max_depth = max_depth;
          opt.max_features = max_features;
          opt.min_samples_leaf = 1 + seed % 4;
          opt.seed = seed * 131;
          expect_tree_equivalence(
              ds.x(), targets, {}, opt,
              "criterion=" + std::to_string(static_cast<int>(criterion)) +
                  " depth=" + std::to_string(max_depth) +
                  " feats=" + std::to_string(max_features) +
                  " seed=" + std::to_string(seed));
        }
      }
    }
  }
}

TEST(TreeTrainerEquivalence, MseWithAndWithoutHessians) {
  for (const std::uint64_t seed : {3u, 11u}) {
    const Dataset ds = workload(seed, 300, 10);
    // Gradient-like continuous targets and positive hessians, as boosting
    // produces them.
    Rng rng(derive_seed(seed, "trainer-test"));
    std::vector<double> grad(ds.n_samples()), hess(ds.n_samples());
    for (std::size_t i = 0; i < grad.size(); ++i) {
      grad[i] = rng.normal() * 0.4 + (ds.y()[i] == 1 ? 0.5 : -0.5);
      hess[i] = 0.05 + rng.uniform();
    }
    for (const bool use_hess : {false, true}) {
      TreeOptions opt;
      opt.criterion = SplitCriterion::kMse;
      opt.max_depth = 5;
      opt.min_samples_leaf = 4;
      opt.max_nodes = 31;
      opt.seed = seed;
      expect_tree_equivalence(ds.x(), grad,
                              use_hess ? hess : std::vector<double>{}, opt,
                              std::string("mse hess=") + (use_hess ? "yes" : "no") +
                                  " seed=" + std::to_string(seed));
    }
  }
}

TEST(TreeTrainerEquivalence, RandomSplitsAndWidthBudget) {
  for (const std::uint64_t seed : {5u, 17u}) {
    const Dataset ds = workload(seed, 260, 7);
    std::vector<double> targets(ds.n_samples());
    for (std::size_t i = 0; i < targets.size(); ++i) targets[i] = ds.y()[i];

    for (const int random_splits : {0, 4, 16}) {
      for (const std::size_t max_width : {0ul, 2ul, 8ul}) {
        TreeOptions opt;
        opt.criterion = SplitCriterion::kEntropy;
        opt.max_depth = 12;
        opt.max_width = max_width;
        opt.random_splits = random_splits;
        opt.max_features = 3;
        opt.seed = seed * 977;
        expect_tree_equivalence(ds.x(), targets, {}, opt,
                                "random_splits=" + std::to_string(random_splits) +
                                    " width=" + std::to_string(max_width) +
                                    " seed=" + std::to_string(seed));
      }
    }
  }
}

TEST(TreeTrainerEquivalence, TiedFeatureValues) {
  // Duplicated rows and coarsely quantized features force value ties — the
  // case where presort tie order differs from the reference sort's.
  Rng rng(99);
  const std::size_t n = 200, d = 5;
  Matrix x(n, d);
  std::vector<double> targets(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      x(r, c) = std::floor(rng.normal() * 3.0) / 3.0;  // heavy ties
    }
    targets[r] = rng.chance(0.5) ? 1.0 : 0.0;
  }
  // Duplicate a block of rows wholesale.
  for (std::size_t r = 0; r < 40; ++r) {
    for (std::size_t c = 0; c < d; ++c) x(n - 1 - r, c) = x(r, c);
    targets[n - 1 - r] = targets[r];
  }
  for (const SplitCriterion criterion :
       {SplitCriterion::kGini, SplitCriterion::kEntropy, SplitCriterion::kMse}) {
    TreeOptions opt;
    opt.criterion = criterion;
    opt.max_depth = 8;
    opt.seed = 4242;
    expect_tree_equivalence(x, targets, {}, opt,
                            "tied criterion=" +
                                std::to_string(static_cast<int>(criterion)));
  }
}

// One seeded adversarial tree-fit problem: sizes down to n = 2, tied and
// tie-free features, every criterion with targets from every regime the
// split scan's arithmetic must survive, optional hessians and random caps.
// With `degenerate_columns`, each feature instead draws a column regime:
// half stay normal (tied or tie-free), the rest are a constant finite
// column, a {+0.0, -0.0} column, an all-+Inf column or a 0/1 column with
// rare 1s.  NaN stays out: both builders sort (value, row) pairs.
struct FuzzCase {
  Matrix x;
  std::vector<double> targets;
  std::vector<double> hessians;
  TreeOptions opt;
  std::string label;
};

FuzzCase adversarial_case(std::uint64_t seed, bool degenerate_columns = false) {
  Rng rng(derive_seed(seed, "tree-trainer-fuzz"));
  FuzzCase c;
  const std::size_t n = 2 + rng.index(300);
  const std::size_t d = 1 + rng.index(6);
  const bool tied = rng.chance(0.5);
  const double grid = static_cast<double>(1 + rng.index(4));

  static constexpr const char* kColumns[] = {"normal", "constant", "signed_zeros",
                                             "plus_inf", "rare_ones"};
  std::vector<std::size_t> column(d, 0);
  std::vector<double> level(d, 0.0);
  std::string columns;
  if (degenerate_columns) {
    for (std::size_t f = 0; f < d; ++f) {
      column[f] = rng.chance(0.5) ? 0 : 1 + rng.index(std::size(kColumns) - 1);
      level[f] = rng.normal();
      columns += std::string(f == 0 ? " columns=" : ",") + kColumns[column[f]];
    }
  }
  c.x = Matrix(n, d);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t f = 0; f < d; ++f) {
      switch (column[f]) {
        case 0: c.x(r, f) = tied ? std::floor(rng.normal() * grid) / grid : rng.normal(); break;
        case 1: c.x(r, f) = level[f]; break;
        case 2: c.x(r, f) = rng.chance(0.5) ? 0.0 : -0.0; break;
        case 3: c.x(r, f) = std::numeric_limits<double>::infinity(); break;
        default: c.x(r, f) = rng.chance(0.03) ? 1.0 : 0.0; break;
      }
    }
  }

  static constexpr const char* kRegimes[] = {
      "labels", "gradients", "scale_2^100", "scale_2^-100", "offset_1e8",
      "outside_01", "outlier", "non_finite", "small_ints"};
  const std::size_t regime = rng.index(std::size(kRegimes));
  c.targets.resize(n);
  for (double& t : c.targets) {
    switch (regime) {
      case 0: t = rng.chance(0.4) ? 1.0 : 0.0; break;
      case 1: t = (rng.chance(0.5) ? 1.0 : 0.0) - 1.0 / (1.0 + std::exp(-rng.normal())); break;
      case 2: t = std::ldexp(rng.normal(), 100); break;
      case 3: t = std::ldexp(rng.normal(), -100); break;
      case 4: t = 1e8 + 1e-6 * rng.normal(); break;
      case 5: t = rng.uniform(-1.5, 2.5); break;
      case 6: t = rng.chance(0.5) ? 1.0 : 0.0; break;
      case 7: t = rng.normal(); break;
      default: t = static_cast<double>(rng.integer(-2, 3)); break;
    }
  }
  if (regime == 6) c.targets[rng.index(n)] = rng.chance(0.5) ? 1e12 : -1e12;
  if (regime == 7) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double bad[] = {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf};
    c.targets[rng.index(n)] = bad[rng.index(3)];
  }
  if (rng.chance(0.3)) {
    c.hessians.resize(n);
    for (double& h : c.hessians) h = rng.uniform(0.01, 1.0);
  }

  c.opt.criterion = static_cast<SplitCriterion>(rng.index(3));
  c.opt.min_samples_leaf = 1 + rng.index(5);
  c.opt.max_features = rng.chance(0.5) ? 0 : 1 + rng.index(d);
  c.opt.max_depth = rng.chance(0.3) ? 0 : 1 + rng.index(8);
  c.opt.max_nodes = rng.chance(0.3) ? 3 + 2 * rng.index(15) : 0;
  c.opt.max_width = rng.chance(0.1) ? 1 + rng.index(4) : 0;
  c.opt.random_splits = rng.chance(0.1) ? static_cast<int>(1 + rng.index(6)) : 0;
  c.opt.seed = rng.next();
  c.label = "case " + std::to_string(seed) + ": n=" + std::to_string(n) +
            " d=" + std::to_string(d) + (tied ? " tied" : " tie-free") + columns +
            " targets=" + kRegimes[regime] +
            " criterion=" + std::to_string(static_cast<int>(c.opt.criterion)) +
            (c.hessians.empty() ? "" : " hessians");
  return c;
}

bool same_bits(double a, double b) {
  std::uint64_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

// Node for node, bit for bit (NaN leaf values included).
bool same_nodes(const TreeModel& a, const TreeModel& b) {
  if (a.node_count() != b.node_count()) return false;
  for (std::size_t i = 0; i < a.node_count(); ++i) {
    const TreeNode& p = a.nodes()[i];
    const TreeNode& q = b.nodes()[i];
    if (p.feature != q.feature || !same_bits(p.threshold, q.threshold) ||
        p.left != q.left || p.right != q.right || !same_bits(p.value, q.value) ||
        p.n_samples != q.n_samples) {
      return false;
    }
  }
  return true;
}

// Fits adversarial_case(seed, degenerate_columns) for seeds [0, cases) with
// both builders, fails on the first five mismatches, and returns how many
// fitted trees split at least once.
std::size_t fuzz_against_reference(std::uint64_t cases, bool degenerate_columns) {
  int failures = 0;
  std::size_t split_trees = 0;
  for (std::uint64_t seed = 0; seed < cases && failures < 5; ++seed) {
    const FuzzCase c = adversarial_case(seed, degenerate_columns);
    TreeModel fast;
    fast.fit(c.x, c.targets, c.hessians, c.opt);
    TreeModel reference;
    oracle::reference_fit_tree(reference, c.x, c.targets, c.hessians, c.opt);
    if (!same_nodes(fast, reference)) {
      ADD_FAILURE() << c.label << "\nfast:\n"
                    << serialized(fast) << "reference:\n"
                    << serialized(reference);
      ++failures;
    }
    split_trees += fast.node_count() > 1 ? 1 : 0;
  }
  return split_trees;
}

TEST(TreeTrainerEquivalence, AdversarialFuzzMatchesReference) {
  // Cancellation (1e8 offset, 2^100 scales, one outlier), non-[0,1] Gini
  // targets and NaN/Inf stats exercise the split scan's screen and the
  // summation order inside tie groups; both builders must agree exactly.
  constexpr std::uint64_t kCases = 2000;
  // Guard against a generator that stops producing splits (2^-100 targets,
  // clamped Gini/entropy means and NaN stats legitimately leave a root leaf).
  EXPECT_GT(fuzz_against_reference(kCases, false), kCases / 3);
}

TEST(TreeTrainerEquivalence, AdversarialFuzzWithConstantColumnsMatchesReference) {
  // Constant, signed-zero and +Inf columns are constant on the training
  // matrix, so the trainer never sorts, binds or partitions them; a
  // rare-ones column is one large tie group, or constant when no 1 is drawn.
  constexpr std::uint64_t kCases = 1000;
  EXPECT_GT(fuzz_against_reference(kCases, true), kCases / 4);
}

// Every tree-family classifier against the oracle's copy of its fit loop:
// serialized ensembles (bootstrap resamples, feature subsets, shared
// workspace reuse across trees) and scores must match byte for byte.  The
// oracle's scores come from its per-tree walks over the oracle's own fit.
class EnsembleEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(EnsembleEquivalence, SerializedModelAndScoresAreByteIdentical) {
  const std::string name = GetParam();
  const Dataset ds = workload(1234, 320, 12);
  // The workload again with four constant columns appended: a finite level,
  // {+0.0, -0.0}, +Inf and zeros.  Bagging's feature subsets, the forests'
  // bootstrap views and boosting's pristine restore all bind them.
  const Matrix padded = [&] {
    const std::size_t d = ds.n_features();
    Matrix x(ds.n_samples(), d + 4);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      for (std::size_t c = 0; c < d; ++c) x(r, c) = ds.x()(r, c);
      x(r, d) = 2.5;
      x(r, d + 1) = r % 2 == 0 ? 0.0 : -0.0;
      x(r, d + 2) = std::numeric_limits<double>::infinity();
    }
    return x;
  }();

  ParamMap params;
  if (name == "random_forest") params.set("n_estimators", 6ll);
  if (name == "bagging") {
    params.set("n_estimators", 5ll);
    params.set("max_features", 0.5);
  }
  if (name == "boosted_trees") params.set("n_estimators", 8ll);
  if (name == "decision_jungle") params.set("n_dags", 4ll);

  for (const Matrix* x : {&ds.x(), &padded}) {
    const std::string label = name + (x == &padded ? " with constant columns" : "");
    auto fast = make_classifier(name, params, 77);
    fast->fit(*x, ds.y());
    const std::string reference = oracle::saved_bytes(
        oracle::reference_tree_classifier_fit(name, params, 77, *x, ds.y()));

    EXPECT_EQ(serialized(*fast), reference) << label;
    const auto fast_scores = fast->predict_score(*x);
    const auto ref_scores = oracle::ReferencePredictor(name, reference).predict_score(*x);
    ASSERT_EQ(fast_scores.size(), ref_scores.size()) << label;
    for (std::size_t i = 0; i < fast_scores.size(); ++i) {
      EXPECT_EQ(fast_scores[i], ref_scores[i]) << label << " row " << i;
    }
  }
}

TEST_P(EnsembleEquivalence, ReplicateResamplingToo) {
  const std::string name = GetParam();
  if (name == "bagging" || name == "boosted_trees") return;  // no resampling knob
  const Dataset ds = workload(88, 200, 9);
  ParamMap params;
  params.set("resampling", std::string("replicate"));
  if (name == "random_forest") params.set("n_estimators", 4ll);
  if (name == "decision_jungle") params.set("n_dags", 3ll);

  auto fast = make_classifier(name, params, 9);
  fast->fit(ds.x(), ds.y());
  EXPECT_EQ(serialized(*fast),
            oracle::saved_bytes(
                oracle::reference_tree_classifier_fit(name, params, 9, ds.x(), ds.y())))
      << name;
}

TEST(TreeTrainerEquivalence, MetaShapedForestMatchesReference) {
  // The shape of a §6.2 meta dataset (family_features): 4 metrics in [0, 1],
  // 18 sparse predicted-label bits and 238 zero-padded bits, fitted with the
  // meta-classifier's parameters.  238 of the 260 columns are constant.
  const std::size_t n = 300, d = 260;
  Rng rng(2026);
  Matrix x(n, d);
  std::vector<int> y(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < 4; ++c) x(r, c) = rng.uniform();
    for (std::size_t c = 4; c < 22; ++c) x(r, c) = rng.chance(0.1) ? 1.0 : 0.0;
    y[r] = x(r, 0) + 0.5 * x(r, 4) + 0.2 * rng.normal() > 0.6 ? 1 : 0;
  }
  const ParamMap params{{"n_estimators", 60LL}, {"max_depth", 14LL}};
  auto fast = make_classifier("random_forest", params, 31);
  fast->fit(x, y);
  EXPECT_EQ(serialized(*fast),
            oracle::saved_bytes(
                oracle::reference_tree_classifier_fit("random_forest", params, 31, x, y)));
}

INSTANTIATE_TEST_SUITE_P(TreeFamily, EnsembleEquivalence,
                         ::testing::Values("decision_tree", "random_forest",
                                           "bagging", "boosted_trees",
                                           "decision_jungle"));

}  // namespace
}  // namespace mlaas
