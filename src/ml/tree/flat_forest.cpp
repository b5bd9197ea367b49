#include "ml/tree/flat_forest.h"

#include <algorithm>
#include <cassert>

namespace mlaas {

void FlatForest::clear() {
  feature_.clear();
  threshold_.clear();
  left_.clear();
  right_.clear();
  roots_.clear();
}

void FlatForest::add_tree(const TreeModel& tree, std::span<const std::size_t> feature_map) {
  const auto base = static_cast<std::int32_t>(feature_.size());
  roots_.push_back(base);
  const auto& nodes = tree.nodes();
  if (nodes.empty()) {
    // Sentinel 0-valued leaf: predict_accumulate on an empty TreeModel does
    // out[r] += scale * 0.0, and a leaf holding 0.0 reproduces that exactly.
    feature_.push_back(0);
    threshold_.push_back(0.0);
    left_.push_back(base);
    right_.push_back(base);
    return;
  }
  const bool remap = !feature_map.empty();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto& node = nodes[i];
    const auto self = base + static_cast<std::int32_t>(i);
    if (node.feature < 0) {
      // Self-looping leaf: both children point back at the node, so the
      // branchless walk below parks here without a per-lane guard branch.
      // The comparison a parked lane keeps evaluating reads column 0
      // against the leaf value riding in the threshold slot; its outcome is
      // irrelevant because both outcomes stay on the leaf.
      feature_.push_back(0);
      threshold_.push_back(node.value);
      left_.push_back(self);
      right_.push_back(self);
    } else {
      const auto f = static_cast<std::size_t>(node.feature);
      feature_.push_back(
          static_cast<std::int32_t>(remap ? feature_map[f] : f));
      threshold_.push_back(node.threshold);
      left_.push_back(base + node.left);
      right_.push_back(base + node.right);
    }
  }
}

namespace {
constexpr std::size_t kRowBlock = 64;

// Walks rows [r0, r1) through one tree, a group of rows at a time so their
// dependent node loads overlap.  Each step is a compare + mask-select with
// no data-dependent branch: leaves self-loop instead of being guarded, and
// -(a <= b) is all-ones when the row goes left, zero when it goes right (a
// ternary here compiles to a data-dependent branch, which is what this
// layout exists to avoid).  The only loop branch is the all-lanes-parked
// exit, which stays predictable until the final iteration.  A step can
// only leave a node via its children, and no node is its own child except
// a leaf, so "no lane moved" is exactly "every lane is parked on its
// row's leaf".  (A lane-refill variant — retire a finished row, load the
// next — was measured slower here: its per-lane retire checks are
// unpredictable branches that fire once per row, and the mispredicts cost
// more than the divergence they reclaim.)
template <typename Retire>
void walk_rows(const double* data, std::size_t d, const std::int32_t* feat,
               const double* thresh, const std::int32_t* left,
               const std::int32_t* right, std::int32_t root, std::size_t r0,
               std::size_t r1, Retire&& retire) {
  // Eight lanes: the walk is latency-bound on each lane's dependent
  // node-load chain, and eight independent chains hide more of that
  // latency than four (measured faster on both shallow forest trees and
  // deep bagged trees, despite the larger max-depth-of-the-quad penalty).
  constexpr std::size_t kLanes = 8;
  std::size_t r = r0;
  for (; r + kLanes <= r1; r += kLanes) {
    const double* p[kLanes];
    std::int32_t node[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      p[l] = data + (r + l) * d;
      node[l] = root;
    }
    while (true) {
      std::int32_t moved = 0;
      for (std::size_t l = 0; l < kLanes; ++l) {
        const std::int32_t o = node[l];
        const std::int32_t m = -static_cast<std::int32_t>(p[l][feat[o]] <= thresh[o]);
        node[l] = (left[o] & m) | (right[o] & ~m);
        moved |= o ^ node[l];
      }
      if (moved == 0) break;
    }
    for (std::size_t l = 0; l < kLanes; ++l) retire(r + l, thresh[node[l]]);
  }
  for (; r < r1; ++r) {
    const double* p = data + r * d;
    std::int32_t node = root;
    while (true) {
      const std::int32_t prev = node;
      node = p[feat[node]] <= thresh[node] ? left[node] : right[node];
      if (node == prev) break;
    }
    retire(r, thresh[node]);
  }
}

}  // namespace

void FlatForest::predict_accumulate(const Matrix& x, double scale,
                                    std::span<double> out) const {
  assert(out.size() >= x.rows());
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  const double* data = x.data().data();
  const std::int32_t* feat = feature_.data();
  const double* thresh = threshold_.data();
  const std::int32_t* left = left_.data();
  const std::int32_t* right = right_.data();
  // Row-block outer / tree inner: one block of query rows stays hot while
  // every tree scores it.  Per row, leaves accumulate in tree order —
  // identical arithmetic to a tree-outer loop (see walk_rows).
  for (std::size_t block = 0; block < n; block += kRowBlock) {
    const std::size_t block_end = std::min(n, block + kRowBlock);
    for (const std::int32_t root : roots_) {
      walk_rows(data, d, feat, thresh, left, right, root, block, block_end,
                [&](std::size_t r, double value) { out[r] += scale * value; });
    }
  }
}

void FlatForest::predict_into(const Matrix& x, std::span<double> out) const {
  assert(roots_.size() == 1);
  assert(out.size() >= x.rows());
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  const double* data = x.data().data();
  const std::int32_t* feat = feature_.data();
  const double* thresh = threshold_.data();
  const std::int32_t* left = left_.data();
  const std::int32_t* right = right_.data();
  const std::int32_t root = roots_[0];
  // Assign, not accumulate: "0.0 + value" flips the sign bit of -0.0
  // leaves, and the per-row tree walk (TreeModel::predict) assigns.
  walk_rows(data, d, feat, thresh, left, right, root, 0, n,
            [&](std::size_t r, double value) { out[r] = value; });
}

}  // namespace mlaas
