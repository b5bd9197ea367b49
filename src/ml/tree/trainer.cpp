#include "ml/tree/trainer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "linalg/vector_ops.h"
#include "util/rng.h"

namespace mlaas {

namespace {

constexpr std::size_t kHardDepthCap = 64;

struct NodeStats {
  double n = 0.0;       // sample count
  double sum = 0.0;     // sum of targets
  double sumsq = 0.0;   // sum of squared targets
  double hess = 0.0;    // sum of hessians (0 if unused)
};

double impurity(const NodeStats& s, SplitCriterion criterion) {
  if (s.n <= 0) return 0.0;
  const double mean = s.sum / s.n;
  switch (criterion) {
    case SplitCriterion::kGini: {
      const double p = std::clamp(mean, 0.0, 1.0);
      return 2.0 * p * (1.0 - p);
    }
    case SplitCriterion::kEntropy: {
      const double p = std::clamp(mean, 0.0, 1.0);
      if (p <= 0.0 || p >= 1.0) return 0.0;
      return -(p * std::log2(p) + (1.0 - p) * std::log2(1.0 - p));
    }
    case SplitCriterion::kMse:
      return std::max(0.0, s.sumsq / s.n - mean * mean);
  }
  return 0.0;
}

struct PendingNode {
  int node_id;
  std::size_t start, end;  // range in the shared index buffer
  std::size_t depth;
  NodeStats stats;
};

struct BestSplit {
  int feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
};

/// Gain evaluation of one candidate threshold; raises `best` only on a gain
/// above it by more than 1e-12, so the first of equal candidates wins.
inline void consider_threshold(double threshold, const NodeStats& left,
                               const PendingNode& p, double parent_imp,
                               SplitCriterion criterion, std::size_t min_samples_leaf,
                               std::size_t feature, BestSplit& best) {
  NodeStats right{p.stats.n - left.n, p.stats.sum - left.sum,
                  p.stats.sumsq - left.sumsq, p.stats.hess - left.hess};
  if (left.n < static_cast<double>(min_samples_leaf) ||
      right.n < static_cast<double>(min_samples_leaf)) {
    return;
  }
  const double gain = parent_imp - (left.n / p.stats.n) * impurity(left, criterion) -
                      (right.n / p.stats.n) * impurity(right, criterion);
  if (gain > best.gain + 1e-12) {
    best = {static_cast<int>(feature), threshold, gain};
  }
}

/// Division-free screen in front of consider_threshold for the full scan
/// (DESIGN.md "Screened split scan").  For MSE (k = 1) and Gini (k = 2) the
/// real-arithmetic gain of a candidate satisfies
///
///   gain <= base + k * S / n,   S = s_l^2 / n_l + s_r^2 / n_r,
///
/// with base = parent_imp - sumsq / n (MSE) or parent_imp - 2 sum / n (Gini),
/// because impurity's max(0, .) and clamp only raise a child's impurity above
/// its quadratic form.  The screen reads the same floating-point inputs as
/// consider_threshold (left.n/sum/sumsq and the parent stats), so only the
/// rounding of the two formulas separates them, and `slack` exceeds that by
/// orders of magnitude: a candidate with S <= cut(best.gain) provably cannot
/// beat best.gain + 1e-12, and skipping it leaves `best` unchanged.
template <SplitCriterion C>
struct GainScreen {
  static constexpr double k = C == SplitCriterion::kGini ? 2.0 : 1.0;

  GainScreen(const NodeStats& s, double parent_imp)
      : base(C == SplitCriterion::kGini ? parent_imp - 2.0 * s.sum / s.n
                                        : parent_imp - s.sumsq / s.n),
        slack(1e-7 * (std::abs(parent_imp) + std::abs(base) +
                      2.0 * k * (std::abs(s.sumsq) + std::abs(s.sum)) / s.n)),
        n_over_k(s.n / k) {}

  /// Candidates with S <= cut(best_gain) cannot win.  A non-finite base or
  /// slack (NaN/Inf targets, sums near overflow) makes t non-finite, and
  /// -inf skips nothing: every candidate takes the exact path.
  double cut(double best_gain) const {
    const double t = (best_gain + 1e-12 - slack - base) * n_over_k;
    return std::isfinite(t) ? t : -std::numeric_limits<double>::infinity();
  }

  double base, slack, n_over_k;
};

/// Presorted split search over a TreeWorkspace: no per-node sort, linear
/// scans over gathered scratch, tandem order maintenance on partition.
class SplitEngine {
 public:
  SplitEngine(TreeWorkspace& ws, std::span<const double> targets,
              std::span<const double> hessians, const TreeOptions& opt)
      : targets_(targets), hessians_(hessians), use_hess_(!hessians.empty()), opt_(opt),
        ws_(ws) {}

  /// Best split of node p; draws feature samples / random thresholds from rng.
  BestSplit find_best_split(const PendingNode& p, Rng& rng) {
    switch (opt_.criterion) {
      case SplitCriterion::kGini:
        return best_split_as<SplitCriterion::kGini>(p, rng);
      case SplitCriterion::kEntropy:
        return best_split_as<SplitCriterion::kEntropy>(p, rng);
      case SplitCriterion::kMse:
        return best_split_as<SplitCriterion::kMse>(p, rng);
    }
    return {};
  }

  /// Partition indices[start, end) for an accepted split; returns mid.
  std::size_t partition(std::size_t start, std::size_t end, const BestSplit& split) {
    const double* col = ws_.column(static_cast<std::size_t>(split.feature));
    auto mid_it = std::partition(
        indices.begin() + static_cast<std::ptrdiff_t>(start),
        indices.begin() + static_cast<std::ptrdiff_t>(end),
        [&](std::size_t idx) { return col[idx] <= split.threshold; });
    const std::size_t mid = static_cast<std::size_t>(mid_it - indices.begin());
    if (mid == start || mid == end) return mid;  // degenerate: orders untouched

    auto& flags = ws_.goes_left();
    for (std::size_t i = start; i < mid; ++i) flags[indices[i]] = 1;
    for (std::size_t i = mid; i < end; ++i) flags[indices[i]] = 0;
    ws_.tandem_partition(start, mid, end);
    return mid;
  }

  std::vector<std::size_t> indices;  // node ranges of the breadth-first build

 private:
  template <SplitCriterion C>
  BestSplit best_split_as(const PendingNode& p, Rng& rng) {
    BestSplit best;
    const double parent_imp = impurity(p.stats, C);
    const std::size_t m = p.end - p.start;
    const std::size_t d = ws_.view_cols();

    std::size_t n_feat = opt_.max_features == 0 ? d : std::min(opt_.max_features, d);
    rng.sample_without_replacement_into(d, n_feat, feat_scratch_);

    double* vals = ws_.value_scratch();
    double* targs = ws_.target_scratch();
    double* hesss = ws_.hessian_scratch();

    for (auto f : feat_scratch_) {
      // A feature constant on the view fails the node test below in every
      // node; its column and order are not maintained, so skip it first.
      if (ws_.constant(f)) continue;
      const double* col = ws_.column(f);
      const std::uint32_t* ord = ws_.order(f) + p.start;
      if (col[ord[0]] == col[ord[m - 1]]) continue;  // constant in this node

      if (opt_.random_splits > 0) {
        // Random thresholds re-scan the prefix per candidate, so gather the
        // node's presorted values/targets into contiguous scratch once.
        for (std::size_t i = 0; i < m; ++i) {
          const std::uint32_t pos = ord[i];
          vals[i] = col[pos];
          targs[i] = targets_[pos];
        }
        if (use_hess_) {
          for (std::size_t i = 0; i < m; ++i) hesss[i] = hessians_[ord[i]];
        }
        const double lo = vals[0];
        const double hi = vals[m - 1];
        for (int s = 0; s < opt_.random_splits; ++s) {
          const double threshold = rng.uniform(lo, hi);
          NodeStats left;
          for (std::size_t i = 0; i < m; ++i) {
            if (vals[i] > threshold) break;
            const double t = targs[i];
            left.n += 1.0;
            left.sum += t;
            left.sumsq += t * t;
            if (use_hess_) left.hess += hesss[i];
          }
          consider_threshold(threshold, left, p, parent_imp, C, opt_.min_samples_leaf, f,
                             best);
        }
      } else {
        full_scan<C>(col, ord, p, parent_imp, f, best);
      }
    }
    return best;
  }

  /// Single fused pass: accumulate row i-1 into the left stats, then
  /// evaluate the boundary before row i whenever the value changes.  Same
  /// accumulation and consider_threshold sequence as a scan of every
  /// boundary, minus candidates that provably cannot win: a child below
  /// min_samples_leaf, or (MSE and Gini; entropy has no quadratic bound) a
  /// gain bound that cannot beat the running best.  Hessians are not folded:
  /// impurity never reads them.
  template <SplitCriterion C>
  void full_scan(const double* col, const std::uint32_t* ord, const PendingNode& p,
                 double parent_imp, std::size_t f, BestSplit& best) {
    constexpr bool kScreened = C != SplitCriterion::kEntropy;
    const std::size_t m = p.end - p.start;
    const std::size_t min_leaf = opt_.min_samples_leaf;
    const std::size_t last = m >= min_leaf ? m - min_leaf : 0;
    const double* inv = ws_.reciprocals();
    const GainScreen<C> screen(p.stats, parent_imp);
    double cut = screen.cut(best.gain);

    NodeStats left;
    double prev = col[ord[0]];
    {
      const double t = targets_[ord[0]];
      left.n += 1.0;
      left.sum += t;
      left.sumsq += t * t;
    }
    for (std::size_t i = 1; i < m; ++i) {
      const std::uint32_t pos = ord[i];
      const double v = col[pos];
      if (v != prev) {
        // n_l = i and n_r = m - i.  consider_threshold rejects a child below
        // min_samples_leaf without touching `best`, so those boundaries are
        // skipped outright; a NaN proxy fails `s <= cut` and is evaluated.
        bool exact = i >= min_leaf && i <= last;
        if constexpr (kScreened) {
          const double right_sum = p.stats.sum - left.sum;
          const double s =
              left.sum * left.sum * inv[i] + right_sum * right_sum * inv[m - i];
          exact = exact && !(s <= cut);
        }
        if (exact) {
          consider_threshold((prev + v) / 2.0, left, p, parent_imp, C,
                             opt_.min_samples_leaf, f, best);
          if constexpr (kScreened) cut = screen.cut(best.gain);
        }
        prev = v;
      }
      const double t = targets_[pos];
      left.n += 1.0;
      left.sum += t;
      left.sumsq += t * t;
    }
  }

  std::span<const double> targets_;
  std::span<const double> hessians_;
  bool use_hess_;
  const TreeOptions& opt_;
  TreeWorkspace& ws_;
  std::vector<std::size_t> feat_scratch_;
};

/// Breadth-first CART build over the split engine.  Node statistics fold
/// over the engine's index buffer in node order.
void build_cart(std::vector<TreeNode>& nodes, SplitEngine& engine, std::size_t n,
                std::span<const double> targets, std::span<const double> hessians,
                const TreeOptions& opt) {
  nodes.clear();
  const bool use_hess = !hessians.empty();
  const std::size_t max_depth =
      opt.max_depth == 0 ? kHardDepthCap : std::min(opt.max_depth, kHardDepthCap);
  Rng rng(derive_seed(opt.seed, "tree"));

  auto& indices = engine.indices;
  indices.resize(n);
  std::iota(indices.begin(), indices.end(), std::size_t{0});

  auto stats_of = [&](std::size_t start, std::size_t end) {
    NodeStats s;
    for (std::size_t i = start; i < end; ++i) {
      const double t = targets[indices[i]];
      s.n += 1.0;
      s.sum += t;
      s.sumsq += t * t;
      if (use_hess) s.hess += hessians[indices[i]];
    }
    return s;
  };
  auto leaf_value = [&](const NodeStats& s) {
    if (use_hess) return s.sum / (s.hess + 1e-6);
    return s.n > 0 ? s.sum / s.n : 0.0;
  };

  auto make_node = [&](const NodeStats& s) {
    TreeNode node;
    node.value = leaf_value(s);
    node.n_samples = static_cast<std::uint32_t>(s.n);
    nodes.push_back(node);
    return static_cast<int>(nodes.size() - 1);
  };

  std::vector<PendingNode> frontier;
  {
    const NodeStats root_stats = stats_of(0, n);
    const int root = make_node(root_stats);
    frontier.push_back({root, 0, n, 0, root_stats});
  }

  while (!frontier.empty()) {
    // Level-width budget (decision jungle): only the widest-impact nodes of
    // each level may split; the rest stay leaves.
    if (opt.max_width > 0 && frontier.size() > opt.max_width) {
      std::stable_sort(frontier.begin(), frontier.end(),
                       [&](const PendingNode& a, const PendingNode& b) {
                         return a.stats.n * impurity(a.stats, opt.criterion) >
                                b.stats.n * impurity(b.stats, opt.criterion);
                       });
      frontier.resize(opt.max_width);
    }
    std::vector<PendingNode> next;
    for (const auto& p : frontier) {
      const std::size_t n_node = p.end - p.start;
      const bool budget_ok = opt.max_nodes == 0 || nodes.size() + 2 <= opt.max_nodes;
      if (p.depth >= max_depth || n_node < opt.min_samples_split || !budget_ok ||
          impurity(p.stats, opt.criterion) <= 1e-12) {
        continue;  // stays a leaf
      }
      const BestSplit split = engine.find_best_split(p, rng);
      if (split.feature < 0) continue;

      const std::size_t mid = engine.partition(p.start, p.end, split);
      if (mid == p.start || mid == p.end) continue;  // degenerate partition

      const NodeStats left_stats = stats_of(p.start, mid);
      const NodeStats right_stats = stats_of(mid, p.end);
      const int left = make_node(left_stats);
      const int right = make_node(right_stats);
      nodes[static_cast<std::size_t>(p.node_id)].feature = split.feature;
      nodes[static_cast<std::size_t>(p.node_id)].threshold = split.threshold;
      nodes[static_cast<std::size_t>(p.node_id)].left = left;
      nodes[static_cast<std::size_t>(p.node_id)].right = right;
      next.push_back({left, p.start, mid, p.depth + 1, left_stats});
      next.push_back({right, mid, p.end, p.depth + 1, right_stats});
    }
    frontier = std::move(next);
  }
}

}  // namespace

std::shared_ptr<const TreeTrainBase> TreeTrainBase::build(const Matrix& x) {
  auto base = std::make_shared<TreeTrainBase>();
  base->rows = x.rows();
  base->cols = x.cols();

  // Feature-major column cache: contiguous reads in split scans and
  // partition predicates instead of strided row-major access.
  base->columns.resize(base->rows * base->cols);
  for (std::size_t r = 0; r < base->rows; ++r) {
    const auto row = x.row(r);
    for (std::size_t f = 0; f < base->cols; ++f) {
      base->columns[f * base->rows + r] = row[f];
    }
  }

  // Presort every feature once: ascending value, row index as tie-break (a
  // deterministic total order; see DESIGN.md on why tie order is free).
  // Sorting contiguous (value, index) pairs — default lexicographic compare
  // is exactly that order — beats an indirect comparator into the column:
  // every hot comparison reads the keys from the sort's own working set.
  // A constant column (every value == the first; a NaN never is) sorts to
  // the identity, so it is flagged and written without a sort.
  base->pristine.resize(base->rows * base->cols);
  base->constant.resize(base->cols);
  std::vector<std::pair<double, std::uint32_t>> keyed(base->rows);
  for (std::size_t f = 0; f < base->cols; ++f) {
    const double* col = base->columns.data() + f * base->rows;
    std::uint32_t* ord = base->pristine.data() + f * base->rows;
    base->constant[f] =
        std::all_of(col, col + base->rows, [&](double v) { return v == col[0]; });
    if (base->constant[f]) {
      std::iota(ord, ord + base->rows, std::uint32_t{0});
      continue;
    }
    for (std::size_t r = 0; r < base->rows; ++r) {
      keyed[r] = {col[r], static_cast<std::uint32_t>(r)};
    }
    std::sort(keyed.begin(), keyed.end());
    for (std::size_t r = 0; r < base->rows; ++r) ord[r] = keyed[r].second;
  }
  return base;
}

namespace {

thread_local TrainContext* t_active_context = nullptr;

/// Bound on TrainContext entries: a grid search touches one matrix per fold
/// and a campaign session one per feature step, both far below this; the
/// cap only guards pathological callers from unbounded column-cache memory.
constexpr std::size_t kMaxContextEntries = 16;

/// Full content hash of a matrix (splitmix64 over the raw double bits plus
/// the dimensions).  Collision-resistant enough that a stale cache entry
/// whose address was reused by different data is detected in practice; the
/// dimensions are mixed in so a truncated reuse cannot alias.
std::uint64_t matrix_content_hash(const Matrix& x) {
  return content_hash(x.rows() * 0x9e3779b97f4a7c15ull + x.cols(), x.data());
}

}  // namespace

TrainContext::MatrixKey TrainContext::MatrixKey::of(const Matrix& x) {
  return {x.data().data(), x.rows(), x.cols(), matrix_content_hash(x)};
}

TrainContext::Entry& TrainContext::touch(const MatrixKey& key) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const Entry& e) { return e.key.same_identity(key); });
  if (it == entries_.end()) {
    if (entries_.size() >= kMaxContextEntries) {
      entries_.erase(std::min_element(entries_.begin(), entries_.end(),
                                      [](const Entry& a, const Entry& b) {
                                        return a.last_used < b.last_used;
                                      }));
    }
    it = entries_.emplace(entries_.end());
  } else if (it->key.content_hash != key.content_hash) {
    *it = Entry{};  // address reused by different contents: drop the stale artifacts
  }
  it->key = key;
  it->last_used = ++tick_;
  return *it;
}

std::shared_ptr<const TreeTrainBase> TrainContext::tree_base(const Matrix& x) {
  const MatrixKey key = MatrixKey::of(x);
  std::lock_guard lock(mu_);
  Entry& e = touch(key);
  if (e.base) {
    ++stats_.tree_base_hits;
    return e.base;
  }
  ++stats_.tree_base_misses;
  e.base = TreeTrainBase::build(x);
  return e.base;
}

std::shared_ptr<const std::vector<double>> TrainContext::row_squared_norms(
    const Matrix& x) {
  const MatrixKey key = MatrixKey::of(x);
  std::lock_guard lock(mu_);
  Entry& e = touch(key);
  if (e.norms) {
    ++stats_.norms_hits;
    return e.norms;
  }
  ++stats_.norms_misses;
  // Same per-row dot as KNearestNeighbors::fit computed, so cached norms
  // are bit-identical to freshly computed ones.
  auto norms = std::make_shared<std::vector<double>>(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto row = x.row(i);
    (*norms)[i] = dot(row, row);
  }
  e.norms = std::move(norms);
  return e.norms;
}

FittedFeatureStep TrainContext::feature_step(const std::string& name, const Matrix& x,
                                             const std::vector<int>& y) {
  FeatureStepSlot slot{MatrixKey::of(x),
                       content_hash(y.size() * 0x9e3779b97f4a7c15ull, std::span<const int>(y)),
                       name, {}};
  {
    std::lock_guard lock(mu_);
    if (step_slot_.fitted.step != nullptr && step_slot_.x == slot.x &&
        step_slot_.labels_hash == slot.labels_hash && step_slot_.name == name) {
      ++stats_.feature_step_hits;
      return step_slot_.fitted;
    }
    ++stats_.feature_step_misses;
    // Free the previous step's transform before building the next, so at
    // most one is alive.
    step_slot_ = FeatureStepSlot{};
  }
  slot.fitted = fit_feature_step(name, x, y);
  std::lock_guard lock(mu_);
  step_slot_ = slot;
  return slot.fitted;
}

TrainContext::Stats TrainContext::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

TrainContext* active_train_context() { return t_active_context; }

ScopedTrainContext::ScopedTrainContext(TrainContext* context) : prev_(t_active_context) {
  t_active_context = context;
}

ScopedTrainContext::~ScopedTrainContext() { t_active_context = prev_; }

void TreeWorkspace::bind_base(const Matrix& x) {
  // Same-matrix early-out: ensembles re-bind per tree.  The identity check
  // (address + dims) matches the pre-context behaviour; an installed
  // TrainContext additionally content-hashes on a fresh bind, so cross-fit
  // reuse never survives an address reused by different data.
  if (base_matrix_ == &x && base_ != nullptr && base_->rows == x.rows() &&
      base_->cols == x.cols()) {
    return;
  }
  base_matrix_ = &x;
  if (TrainContext* context = active_train_context()) {
    base_ = context->tree_base(x);
  } else {
    base_ = TreeTrainBase::build(x);
  }
}

void TreeWorkspace::bind(const Matrix& x, std::span<const std::size_t> rows,
                         std::span<const std::size_t> features) {
  bind_base(x);
  const std::size_t base_rows = base_->rows;
  view_rows_ = rows.empty() ? base_rows : rows.size();
  view_cols_ = features.empty() ? base_->cols : features.size();
  view_is_base_ = rows.empty() && features.empty();
  order_.resize(view_rows_ * view_cols_);

  // Only the non-constant features get a column and an order below.
  view_constant_.resize(view_cols_);
  live_.clear();
  for (std::size_t j = 0; j < view_cols_; ++j) {
    view_constant_[j] = base_->constant[features.empty() ? j : features[j]];
    if (view_constant_[j] == 0) live_.push_back(j);
  }

  if (!view_is_base_) {
    view_columns_.resize(view_rows_ * view_cols_);
    for (const std::size_t j : live_) {
      const std::size_t f = features.empty() ? j : features[j];
      const double* src = base_->columns.data() + f * base_rows;
      double* dst = view_columns_.data() + j * view_rows_;
      if (rows.empty()) {
        std::copy(src, src + base_rows, dst);
      } else {
        for (std::size_t i = 0; i < view_rows_; ++i) dst[i] = src[rows[i]];
      }
    }
  }

  if (rows.empty()) {
    // Same sample set as the base: restore the pristine orders with a copy.
    const auto& pristine = base_->pristine;
    for (const std::size_t j : live_) {
      const std::size_t f = features.empty() ? j : features[j];
      std::copy(pristine.begin() + static_cast<std::ptrdiff_t>(f * base_rows),
                pristine.begin() + static_cast<std::ptrdiff_t>((f + 1) * base_rows),
                order_.begin() + static_cast<std::ptrdiff_t>(j * view_rows_));
    }
  } else {
    // Bootstrap: derive each feature's presorted order from the base order
    // by a counting pass — walk base rows in sorted order and emit every
    // bootstrap position that drew that row, ascending.  O(d x n), no sort.
    row_count_.assign(base_rows, 0);
    for (const std::size_t r : rows) ++row_count_[r];
    row_offset_.resize(base_rows + 1);
    row_offset_[0] = 0;
    for (std::size_t r = 0; r < base_rows; ++r) {
      row_offset_[r + 1] = row_offset_[r] + row_count_[r];
    }
    row_positions_.resize(view_rows_);
    row_count_.assign(base_rows, 0);
    for (std::size_t i = 0; i < view_rows_; ++i) {
      const std::size_t r = rows[i];
      row_positions_[row_offset_[r] + row_count_[r]++] = static_cast<std::uint32_t>(i);
    }
    for (const std::size_t j : live_) {
      const std::size_t f = features.empty() ? j : features[j];
      const std::uint32_t* base_ord = base_->pristine.data() + f * base_rows;
      std::uint32_t* ord = order_.data() + j * view_rows_;
      std::size_t w = 0;
      for (std::size_t k = 0; k < base_rows; ++k) {
        const std::uint32_t r = base_ord[k];
        for (std::uint32_t o = row_offset_[r]; o < row_offset_[r + 1]; ++o) {
          ord[w++] = row_positions_[o];
        }
      }
      assert(w == view_rows_);
    }
  }

  goes_left_.resize(view_rows_);
  part_right_.resize(view_rows_ + 1);
  // 1/j depends only on j, so the table only ever grows.
  if (reciprocal_.size() < view_rows_ + 1) {
    std::size_t j = std::max<std::size_t>(reciprocal_.size(), 1);
    reciprocal_.resize(view_rows_ + 1);
    for (; j <= view_rows_; ++j) reciprocal_[j] = 1.0 / static_cast<double>(j);
  }
  value_scratch_.resize(view_rows_);
  target_scratch_.resize(view_rows_);
  hessian_scratch_.resize(view_rows_);
}

void TreeWorkspace::tandem_partition(std::size_t start, std::size_t mid,
                                     std::size_t end) {
  // Branchless stable split: every element is written both in place at the
  // left cursor (safe: w never passes the read position) and to the right
  // spill buffer, and only the matching cursor advances.  The side flag is
  // data-dependent and essentially random, so a conditional write would
  // mispredict on every other element; two unconditional stores are far
  // cheaper.  The spill buffer is one slot larger than the view so the
  // trailing non-advancing store stays in bounds.
  std::uint32_t* rhs = part_right_.data();
  const std::uint8_t* flags = goes_left_.data();
  for (const std::size_t f : live_) {
    std::uint32_t* ord = order(f);
    std::size_t w = start;
    std::size_t nr = 0;
    for (std::size_t i = start; i < end; ++i) {
      const std::uint32_t pos = ord[i];
      const std::uint8_t left = flags[pos];
      ord[w] = pos;
      rhs[nr] = pos;
      w += left;
      nr += 1 - left;
    }
    assert(w == mid);
    (void)mid;
    std::copy(rhs, rhs + nr, ord + w);
  }
}

void train_tree(TreeModel& tree, TreeWorkspace& workspace, const Matrix& x,
                std::span<const double> targets, std::span<const double> hessians,
                const TreeOptions& options, std::span<const std::size_t> rows,
                std::span<const std::size_t> features) {
  workspace.bind(x, rows, features);
  SplitEngine engine(workspace, targets, hessians, options);
  std::vector<TreeNode> nodes;
  build_cart(nodes, engine, workspace.view_rows(), targets, hessians, options);
  tree.set_nodes(std::move(nodes));
}

void train_forest(std::span<TreeModel> trees, TreeWorkspace& workspace, const Matrix& x,
                  std::span<const double> targets, TreeOptions options, std::uint64_t seed,
                  const std::string& salt, bool bootstrap) {
  const std::size_t n = x.rows();
  std::vector<std::size_t> boot_rows(bootstrap ? n : 0);
  std::vector<double> boot_targets(bootstrap ? n : 0);
  for (std::size_t t = 0; t < trees.size(); ++t) {
    options.seed = derive_seed(seed, salt + std::to_string(t));
    if (!bootstrap) {
      train_tree(trees[t], workspace, x, targets, {}, options);
      continue;
    }
    Rng rng(derive_seed(options.seed, "bootstrap"));
    for (std::size_t i = 0; i < n; ++i) {
      boot_rows[i] = rng.index(n);
      boot_targets[i] = targets[boot_rows[i]];
    }
    train_tree(trees[t], workspace, x, boot_targets, {}, options, boot_rows);
  }
}

}  // namespace mlaas
