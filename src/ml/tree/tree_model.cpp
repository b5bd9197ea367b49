#include "ml/tree/tree_model.h"

#include "ml/serialize.h"
#include "ml/tree/trainer.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace mlaas {

void TreeModel::fit(const Matrix& x, std::span<const double> targets,
                    std::span<const double> hessians, const TreeOptions& opt) {
  TreeWorkspace workspace;
  train_tree(*this, workspace, x, targets, hessians, opt);
}

double TreeModel::predict_one(std::span<const double> row) const {
  if (nodes_.empty()) return 0.0;
  std::size_t node = 0;
  while (nodes_[node].feature >= 0) {
    node = static_cast<std::size_t>(
        row[static_cast<std::size_t>(nodes_[node].feature)] <= nodes_[node].threshold
            ? nodes_[node].left
            : nodes_[node].right);
  }
  return nodes_[node].value;
}

std::vector<double> TreeModel::predict(const Matrix& x) const {
  std::vector<double> out(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) out[r] = predict_one(x.row(r));
  return out;
}

void TreeModel::predict_accumulate(const Matrix& x, double scale,
                                   std::span<double> out) const {
  constexpr std::size_t kBlock = 256;
  const std::size_t n = x.rows();
  if (nodes_.empty()) {
    // Preserve the exact arithmetic of accumulating a zero prediction.
    for (std::size_t r = 0; r < n; ++r) out[r] += scale * 0.0;
    return;
  }
  const TreeNode* nodes = nodes_.data();
  for (std::size_t block = 0; block < n; block += kBlock) {
    const std::size_t block_end = std::min(n, block + kBlock);
    for (std::size_t r = block; r < block_end; ++r) {
      const auto row = x.row(r);
      const TreeNode* node = nodes;
      while (node->feature >= 0) {
        const double v = row[static_cast<std::size_t>(node->feature)];
        node = nodes + (v <= node->threshold ? node->left : node->right);
      }
      out[r] += scale * node->value;
    }
  }
}

std::size_t TreeModel::leaf_count() const {
  std::size_t leaves = 0;
  for (const auto& n : nodes_) leaves += n.feature < 0 ? 1 : 0;
  return leaves;
}

std::size_t TreeModel::depth() const {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the implicit tree structure.
  std::vector<std::size_t> depth_of(nodes_.size(), 0);
  std::size_t max_depth = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].feature >= 0) {
      depth_of[static_cast<std::size_t>(nodes_[i].left)] = depth_of[i] + 1;
      depth_of[static_cast<std::size_t>(nodes_[i].right)] = depth_of[i] + 1;
      max_depth = std::max(max_depth, depth_of[i] + 1);
    }
  }
  return max_depth;
}


void TreeModel::save(std::ostream& out) const {
  model_io::write_int(out, static_cast<long long>(nodes_.size()));
  for (const auto& node : nodes_) {
    model_io::write_int(out, node.feature);
    model_io::write_double(out, node.threshold);
    model_io::write_int(out, node.left);
    model_io::write_int(out, node.right);
    model_io::write_double(out, node.value);
    model_io::write_int(out, node.n_samples);
  }
}

void TreeModel::load(std::istream& in) {
  const std::size_t count = model_io::read_count(in, "tree node count");
  if (count > static_cast<std::size_t>(std::numeric_limits<int>::max())) {
    throw std::runtime_error("load_model: tree node count " + std::to_string(count) +
                             " exceeds the int node index range");
  }
  // Every walk indexes children without bounds checks, and the flat walk
  // treats a self-loop as a leaf.  Training appends children after their
  // parent, so a split node must link forward, inside the array: that
  // rules out out-of-range reads and cycles alike.
  const auto child = [&](std::size_t i, long long c) {
    if (c <= static_cast<long long>(i) || static_cast<std::size_t>(c) >= count) {
      throw std::runtime_error("load_model: tree node " + std::to_string(i) + " has child " +
                               std::to_string(c) + " outside (" + std::to_string(i) + ", " +
                               std::to_string(count) + ")");
    }
    return static_cast<int>(c);
  };
  nodes_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    TreeNode node;
    const long long feature = model_io::read_int(in);
    node.threshold = model_io::read_double(in);
    const long long left = model_io::read_int(in);
    const long long right = model_io::read_int(in);
    node.value = model_io::read_double(in);
    node.n_samples = static_cast<std::uint32_t>(model_io::read_int(in));
    if (feature < -1 || feature > std::numeric_limits<int>::max()) {
      throw std::runtime_error("load_model: tree node " + std::to_string(i) +
                               " has feature " + std::to_string(feature) +
                               " (a leaf is -1)");
    }
    node.feature = static_cast<int>(feature);
    if (node.feature >= 0) {
      node.left = child(i, left);
      node.right = child(i, right);
    } else {  // a leaf's links are never followed
      node.left = static_cast<int>(left);
      node.right = static_cast<int>(right);
    }
    nodes_.push_back(node);
  }
}

void save_trees(std::ostream& out, std::span<const TreeModel> trees) {
  model_io::write_int(out, static_cast<long long>(trees.size()));
  for (const TreeModel& tree : trees) tree.save(out);
}

std::vector<TreeModel> load_trees(std::istream& in, const char* what) {
  const std::size_t count = model_io::read_count(in, what);
  std::vector<TreeModel> trees;
  for (std::size_t t = 0; t < count; ++t) trees.emplace_back().load(in);
  return trees;
}

}  // namespace mlaas
