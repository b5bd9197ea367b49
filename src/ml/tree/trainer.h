// Fast exact-equivalence training kernels for the CART tree family.
//
// The original TreeModel builder re-sorted every sampled feature at every
// node: O(nodes x features x n log n) with a fresh (value, index) pair
// vector per feature per node.  TreeWorkspace replaces the per-node sort
// with the classic CART presort scheme:
//
//   (a) a feature-major column cache of the training matrix,
//   (b) per-feature sample orders presorted once per tree and maintained
//       across node splits by a stable tandem partition over a left/right
//       flag buffer,
//   (c) gathered value/target/hessian scratch buffers so split scans are
//       branch-light linear passes,
//   (d) for MSE and Gini, a division-free upper bound on each candidate's
//       gain that skips the exact evaluation of candidates which provably
//       cannot beat the running best (DESIGN.md "Screened split scan"),
//   (e) a flag per feature that is constant on the training matrix: no
//       split can use one, so it is never sorted, gathered or partitioned
//       (DESIGN.md "Constant features").
//
// The workspace is allocated once and reused across all trees of an
// ensemble.  For ensembles that train every tree on the same matrix
// (boosting), the base matrix is transposed and presorted once and each
// tree restores the pristine orders with a copy; bootstrap resamples
// derive their presorted orders from the base orders by a counting pass,
// with no per-tree sort at all.
//
// Exact equivalence: train_tree() visits the same candidate thresholds in
// the same order as the original builder, draws from the RNG at the same
// points, and computes node statistics over the same index-buffer folds, so
// chosen splits, tie-breaks and serialized nodes are bit-identical.  That
// builder is kept verbatim as a test-only oracle (tests/oracle/tree_fit.h),
// not in the library; see DESIGN.md "Training kernels" for the argument.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "ml/feature/filters.h"
#include "ml/tree/tree_model.h"

namespace mlaas {

/// The immutable, matrix-only half of the presort scheme: the feature-major
/// column cache and the per-feature presorted base orders.  Depends only on
/// the training matrix's contents, so one build can be shared (shared_ptr)
/// by every workspace — and every classifier fit — training on that matrix.
struct TreeTrainBase {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<double> columns;          // feature-major base matrix
  std::vector<std::uint32_t> pristine;  // per-feature presorted base orders
  std::vector<std::uint8_t> constant;   // 1 when every value of the feature == the first

  /// Transpose + presort `x`.  Deterministic: ascending value with row index
  /// as tie-break, so two builds of equal matrices are byte-identical.  A
  /// constant feature is flagged and not sorted: its order is the identity.
  static std::shared_ptr<const TreeTrainBase> build(const Matrix& x);
};

/// Cross-fit cache of data-only training state, shared between every config
/// a tuner or campaign session fits on the same training matrix: the tree
/// family's TreeTrainBase, kNN's cached squared row norms, and one fitted
/// pipeline feature step.
///
/// Entries are keyed on matrix identity (data pointer, rows, cols) and
/// guarded by a full content hash verified on every lookup — a freed matrix
/// whose address is reused by different data (e.g. per-config feature-step
/// temporaries) hashes differently and rebuilds instead of silently serving
/// a stale presort.  The hash pass is O(n·d); the presort it saves is
/// O(d · n log n), and a wrong hit would corrupt results, so the guard is
/// cheap insurance.  A small LRU cap bounds memory.
///
/// Thread-safe: grid_search workers on different folds share one context.
/// Cached artifacts are immutable and returned by shared_ptr, so they stay
/// valid even after eviction.  Using a context never changes results: the
/// cached state is bit-identical to what each fit would rebuild.
class TrainContext {
 public:
  std::shared_ptr<const TreeTrainBase> tree_base(const Matrix& x);
  std::shared_ptr<const std::vector<double>> row_squared_norms(const Matrix& x);

  /// fit_feature_step(name, x, y), served from a one-slot cache.  The slot
  /// is keyed on x's identity and content hash, a content hash of y, and
  /// `name`; a call with any of them different refits and replaces it.
  /// Feature steps take no seed and their fit is a pure function of
  /// (x, y), so a run of pipelines using one step on one training set fits
  /// it once.  The held transform keeps its address while the slot holds
  /// it, so the classifier's tree_base / row_squared_norms lookups on it
  /// hit too.  One slot because a campaign session emits each step's cells
  /// consecutively; holding every step would add only the joint sample's
  /// hits and costs peak memory (DESIGN.md "Model-selection engine").
  FittedFeatureStep feature_step(const std::string& name, const Matrix& x,
                                 const std::vector<int>& y);

  struct Stats {
    std::size_t tree_base_hits = 0;
    std::size_t tree_base_misses = 0;
    std::size_t norms_hits = 0;
    std::size_t norms_misses = 0;
    std::size_t feature_step_hits = 0;
    std::size_t feature_step_misses = 0;
  };
  Stats stats() const;

 private:
  /// A matrix's identity (data pointer, rows, cols) plus its content hash.
  struct MatrixKey {
    const void* data = nullptr;
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::uint64_t content_hash = 0;

    static MatrixKey of(const Matrix& x);
    bool same_identity(const MatrixKey& other) const {
      return data == other.data && rows == other.rows && cols == other.cols;
    }
    bool operator==(const MatrixKey&) const = default;
  };
  struct Entry {
    MatrixKey key;
    std::uint64_t last_used = 0;
    std::shared_ptr<const TreeTrainBase> base;
    std::shared_ptr<const std::vector<double>> norms;
  };
  struct FeatureStepSlot {
    MatrixKey x;
    std::uint64_t labels_hash = 0;
    std::string name;
    FittedFeatureStep fitted;
  };
  /// Find-or-create the entry for `key`; resets a stale entry whose address
  /// was reused by different contents.  mu_ held.
  Entry& touch(const MatrixKey& key);

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  FeatureStepSlot step_slot_;
  std::uint64_t tick_ = 0;
  Stats stats_;
};

/// The calling thread's installed TrainContext (nullptr when none).
/// Consulted by TreeWorkspace::bind, KNearestNeighbors::fit and
/// PipelineModel::fit.
TrainContext* active_train_context();

/// RAII installer for the thread-local active context.  Passing nullptr
/// masks any outer context for the scope; the previous value is restored on
/// destruction.  Install the same TrainContext on each worker thread to
/// share state across a parallel sweep.
class ScopedTrainContext {
 public:
  explicit ScopedTrainContext(TrainContext* context);
  ~ScopedTrainContext();
  ScopedTrainContext(const ScopedTrainContext&) = delete;
  ScopedTrainContext& operator=(const ScopedTrainContext&) = delete;

 private:
  TrainContext* prev_;
};

/// Per-ensemble training workspace: shared column cache + presorted orders
/// (TreeTrainBase) and per-tree working orders and scratch buffers.  bind()
/// is called by train_tree(); the bound matrix must stay alive and
/// unchanged while the workspace uses it.
///
/// A feature that is constant on the bound matrix is constant in every view
/// and every node, so no split can use it: bind() neither gathers its column
/// nor fills its order, and tandem_partition() does not maintain it.  Its
/// column() and order() hold stale data; test constant() before reading.
class TreeWorkspace {
 public:
  /// Bind a training view of `x`: the full matrix (rows/features empty), a
  /// bootstrap row multiset, and/or a feature subset.  The base column
  /// cache and presorted base orders are computed once per matrix and
  /// reused for every subsequent view of the same matrix.
  void bind(const Matrix& x, std::span<const std::size_t> rows = {},
            std::span<const std::size_t> features = {});

  std::size_t view_rows() const { return view_rows_; }
  std::size_t view_cols() const { return view_cols_; }
  /// True when feature f of the view is constant on the bound matrix.
  bool constant(std::size_t f) const { return view_constant_[f] != 0; }

  /// Contiguous column of the bound view.
  const double* column(std::size_t f) const {
    return (view_is_base_ ? base_->columns.data() : view_columns_.data()) +
           f * view_rows_;
  }
  /// Working sample order of feature f (positions into the view).
  std::uint32_t* order(std::size_t f) { return order_.data() + f * view_rows_; }

  /// Stable tandem partition of every non-constant feature order over
  /// [start, end): samples flagged left (goes_left()[pos] != 0) keep their
  /// relative order in [start, mid), the rest in [mid, end).
  void tandem_partition(std::size_t start, std::size_t mid, std::size_t end);

  std::vector<std::uint8_t>& goes_left() { return goes_left_; }
  /// reciprocals()[j] == 1.0 / j for 1 <= j <= view_rows().
  const double* reciprocals() const { return reciprocal_.data(); }
  double* value_scratch() { return value_scratch_.data(); }
  double* target_scratch() { return target_scratch_.data(); }
  double* hessian_scratch() { return hessian_scratch_.data(); }

 private:
  void bind_base(const Matrix& x);

  const Matrix* base_matrix_ = nullptr;             // identity of the bound base
  std::shared_ptr<const TreeTrainBase> base_;       // columns + pristine orders

  std::size_t view_rows_ = 0;
  std::size_t view_cols_ = 0;
  bool view_is_base_ = false;
  std::vector<double> view_columns_;      // gathered bootstrap/subset columns
  std::vector<std::uint32_t> order_;      // per-feature working orders
  std::vector<std::uint8_t> view_constant_;  // per view feature: base constant flag
  std::vector<std::size_t> live_;         // view features that are not constant

  std::vector<std::uint8_t> goes_left_;   // per-position split side flags
  std::vector<std::uint32_t> part_right_;  // tandem right spill buffer
  std::vector<double> value_scratch_, target_scratch_, hessian_scratch_;
  std::vector<double> reciprocal_;        // 1/j: the screened scan's 1/n_l, 1/n_r
  // Bootstrap order derivation scratch (counting pass).
  std::vector<std::uint32_t> row_count_, row_offset_, row_positions_;
};

/// Train `tree` on a view of `x` (optionally a bootstrap row multiset
/// and/or feature subset) through `workspace`.  Targets/hessians are
/// indexed by view row.  Fits what a fit on the materialized view
/// (x.select_rows(rows), then select_cols(features)) would, without
/// building it; DESIGN.md "Training kernels" notes the one freedom, the
/// fold order inside tie groups of a bootstrap view.
void train_tree(TreeModel& tree, TreeWorkspace& workspace, const Matrix& x,
                std::span<const double> targets, std::span<const double> hessians,
                const TreeOptions& options, std::span<const std::size_t> rows = {},
                std::span<const std::size_t> features = {});

/// The bootstrap-forest loop of the random forest, the jungle and the
/// forest regressor: tree t trains with options.seed = derive_seed(seed,
/// salt + t), all through `workspace`.  With `bootstrap`, it sees n rows
/// drawn with replacement by an Rng seeded derive_seed(options.seed,
/// "bootstrap"); otherwise every row of x.  The caller owns the workspace,
/// as with train_tree(), and keeps it until the forest is flattened: freeing
/// its buffers before the flat arrays are allocated changed the heap layout
/// enough to raise perfbench `serve`'s peak RSS from 85 to 89 MiB (glibc,
/// 4-vCPU VM).
void train_forest(std::span<TreeModel> trees, TreeWorkspace& workspace, const Matrix& x,
                  std::span<const double> targets, TreeOptions options, std::uint64_t seed,
                  const std::string& salt, bool bootstrap);

}  // namespace mlaas
