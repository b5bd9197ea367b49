// Model persistence round-trips: every registry classifier must predict
// identically after save -> load, including single-class models.
#include "ml/serialize.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ml/registry.h"
#include "tests/ml/test_helpers.h"

namespace mlaas {
namespace {

class SerializeRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(SerializeRoundTrip, PredictionsSurviveRoundTrip) {
  const Dataset train = testing::circles(200, 3);
  const Dataset test = testing::circles(80, 4);
  auto original = make_classifier(GetParam(), {}, 9);
  original->fit(train.x(), train.y());

  std::stringstream buffer;
  save_model(buffer, *original);
  const ClassifierPtr restored = load_model(buffer);

  ASSERT_EQ(restored->name(), GetParam());
  EXPECT_EQ(restored->predict(test.x()), original->predict(test.x()));
  const auto a = original->predict_score(test.x());
  const auto b = restored->predict_score(test.x());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST_P(SerializeRoundTrip, SingleClassModelsRoundTrip) {
  Matrix x{{1, 2}, {3, 4}, {5, 6}};
  auto original = make_classifier(GetParam(), {}, 9);
  original->fit(x, {1, 1, 1});
  std::stringstream buffer;
  save_model(buffer, *original);
  const ClassifierPtr restored = load_model(buffer);
  EXPECT_EQ(restored->predict(x), (std::vector<int>{1, 1, 1}));
}

INSTANTIATE_TEST_SUITE_P(AllClassifiers, SerializeRoundTrip,
                         ::testing::ValuesIn(classifier_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(Serialize, BadMagicRejected) {
  std::stringstream buffer("not-a-model 1\nlogistic_regression\n");
  EXPECT_THROW(load_model(buffer), std::runtime_error);
}

TEST(Serialize, UnsupportedVersionRejected) {
  std::stringstream buffer("mlaas-model 99\nlogistic_regression\n");
  EXPECT_THROW(load_model(buffer), std::runtime_error);
}

TEST(Serialize, TruncatedStateRejected) {
  const Dataset train = testing::separable(100, 5);
  auto clf = make_classifier("random_forest", {}, 1);
  clf->fit(train.x(), train.y());
  std::stringstream buffer;
  save_model(buffer, *clf);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_model(truncated), std::runtime_error);
}

TEST(Serialize, UnknownClassifierNameRejected) {
  std::stringstream buffer("mlaas-model 1\nquantum_svm\n0 0\n");
  EXPECT_THROW(load_model(buffer), std::invalid_argument);
}

// Loads `text`, expecting the std::runtime_error the model_io readers throw,
// with a message that names `what` (so the test fails if the model is
// rejected for some other reason, such as a typo in the hand-built text).
void expect_rejected(const std::string& text, const std::string& what) {
  std::stringstream in(text);
  try {
    load_model(in);
    ADD_FAILURE() << "model with bad " << what << " was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

// A kNN model in save_model's layout: two-class unless `single_class`.
std::string knn_text(long long n_neighbors, double p, const Matrix& x,
                     const std::vector<int>& y, bool single_class = false) {
  std::ostringstream out;
  out << "mlaas-model 1\nknn\n" << (single_class ? "1 1" : "0 0") << '\n';
  model_io::write_int(out, n_neighbors);
  model_io::write_int(out, 0);
  model_io::write_double(out, p);
  model_io::write_matrix(out, x);
  model_io::write_ivec(out, y);
  return out.str();
}

TEST(Serialize, KnnHandBuiltModelLoads) {
  // The well-formed base every kNN rejection below mutates in one place.
  const Matrix x{{0, 0}, {1, 1}, {2, 2}};
  std::stringstream in(knn_text(2, 1.0, x, {0, 1, 1}));
  const ClassifierPtr clf = load_model(in);
  EXPECT_EQ(clf->predict(Matrix{{2, 2}}), (std::vector<int>{1}));
}

TEST(Serialize, KnnZeroNeighborsRejected) {
  expect_rejected(knn_text(0, 2.0, Matrix{{0, 0}, {1, 1}}, {0, 1}), "n_neighbors");
}

TEST(Serialize, KnnExponentBelowOneRejected) {
  expect_rejected(knn_text(1, 0.5, Matrix{{0, 0}, {1, 1}}, {0, 1}), "knn p");
}

TEST(Serialize, KnnLabelCountMismatchRejected) {
  expect_rejected(knn_text(1, 2.0, Matrix{{0, 0}, {1, 1}, {2, 2}}, {0, 1}), "labels");
}

TEST(Serialize, KnnWithoutTrainingRowsRejected) {
  expect_rejected(knn_text(1, 2.0, Matrix(0, 2), {}), "no training rows");
  // A single-class model never consults its training rows.
  std::stringstream in(knn_text(1, 2.0, Matrix(0, 2), {}, /*single_class=*/true));
  EXPECT_EQ(load_model(in)->predict(Matrix{{3, 3}}), (std::vector<int>{1}));
}

struct MlpLayer {
  Matrix w;
  std::vector<double> b;
};

// A two-class MLP model in save_model's layout.
std::string mlp_text(const std::string& activation, const std::vector<MlpLayer>& layers,
                     const std::vector<double>& mean, const std::vector<double>& std_dev) {
  std::ostringstream out;
  out << "mlaas-model 1\nmlp\n0 0\n";
  model_io::write_string(out, activation);
  model_io::write_int(out, static_cast<long long>(layers.size()));
  for (const MlpLayer& layer : layers) {
    model_io::write_matrix(out, layer.w);
    model_io::write_vec(out, layer.b);
  }
  model_io::write_vec(out, mean);
  model_io::write_vec(out, std_dev);
  return out.str();
}

// 2 inputs -> 3 hidden -> 1 output.
std::vector<MlpLayer> mlp_layers() {
  return {{Matrix{{1, 0}, {0, 1}, {1, 1}}, {0, 0, 0}}, {Matrix{{1, -1, 0.5}}, {0.1}}};
}

TEST(Serialize, MlpHandBuiltModelLoads) {
  std::stringstream in(mlp_text("tanh", mlp_layers(), {0, 0}, {1, 1}));
  const ClassifierPtr clf = load_model(in);
  EXPECT_EQ(clf->predict_score(Matrix{{0.5, -0.5}}).size(), 1u);
}

TEST(Serialize, MlpUnknownActivationRejected) {
  expect_rejected(mlp_text("softplus", mlp_layers(), {0, 0}, {1, 1}), "activation");
}

TEST(Serialize, MlpWithoutLayersRejected) {
  expect_rejected(mlp_text("relu", {}, {}, {}), "no layers");
}

TEST(Serialize, MlpLayerWidthMismatchRejected) {
  auto layers = mlp_layers();
  layers[1].w = Matrix{{1, -1}};  // 2 inputs, but the hidden layer has 3 units
  expect_rejected(mlp_text("relu", layers, {0, 0}, {1, 1}), "input width");
}

TEST(Serialize, MlpBiasSizeMismatchRejected) {
  auto layers = mlp_layers();
  layers[0].b = {0, 0};
  expect_rejected(mlp_text("relu", layers, {0, 0}, {1, 1}), "bias");
}

TEST(Serialize, MlpOutputLayerWithTwoUnitsRejected) {
  auto layers = mlp_layers();
  layers[1] = {Matrix{{1, -1, 0.5}, {0, 1, 0}}, {0.1, 0.2}};
  expect_rejected(mlp_text("relu", layers, {0, 0}, {1, 1}), "one unit");
}

TEST(Serialize, MlpShortFeatureStandardizationRejected) {
  expect_rejected(mlp_text("relu", mlp_layers(), {0}, {1, 1}), "mean/std");
  expect_rejected(mlp_text("relu", mlp_layers(), {0, 0}, {1}), "mean/std");
}

// One stump in TreeModel::save's layout: x0 <= 0.5 -> 0.0, else 1.0.
struct StumpNode {
  long long feature;
  long long left;
  long long right;
  double value;
};

std::string tree_text(const std::vector<StumpNode>& nodes, long long count) {
  std::ostringstream out;
  model_io::write_int(out, count);
  for (const StumpNode& node : nodes) {
    model_io::write_int(out, node.feature);
    model_io::write_double(out, 0.5);
    model_io::write_int(out, node.left);
    model_io::write_int(out, node.right);
    model_io::write_double(out, node.value);
    model_io::write_int(out, 2);
  }
  return out.str();
}

std::vector<StumpNode> stump() { return {{0, 1, 2, 0.5}, {-1, -1, -1, 0.0}, {-1, -1, -1, 1.0}}; }

std::string decision_tree_text(const std::vector<StumpNode>& nodes) {
  return "mlaas-model 1\ndecision_tree\n0 0\n" +
         tree_text(nodes, static_cast<long long>(nodes.size()));
}

TEST(Serialize, TreeHandBuiltModelLoads) {
  // The well-formed base every tree rejection below mutates in one place.
  std::stringstream in(decision_tree_text(stump()));
  const ClassifierPtr clf = load_model(in);
  EXPECT_EQ(clf->predict(Matrix{{0.0}, {1.0}}), (std::vector<int>{0, 1}));
}

TEST(Serialize, TreeNodeCountOutOfRangeRejected) {
  const std::string head = "mlaas-model 1\ndecision_tree\n0 0\n";
  expect_rejected(head + tree_text({}, -5), "negative tree node count");
  // Child links are ints, so a larger node array is not addressable.
  expect_rejected(head + tree_text(stump(), 3000000000ll), "int node index range");
}

TEST(Serialize, TreeChildOutOfRangeRejected) {
  auto nodes = stump();
  nodes[0].left = 999999;
  expect_rejected(decision_tree_text(nodes), "child 999999");
}

TEST(Serialize, TreeSelfLoopRejected) {
  // The flat walk would park on the root as if it were a leaf.
  auto nodes = stump();
  nodes[0].left = 0;
  expect_rejected(decision_tree_text(nodes), "child 0 outside (0, 3)");
}

TEST(Serialize, TreeBackwardLinkRejected) {
  // Node 1 splits back to the root: a cycle.
  std::vector<StumpNode> nodes = {{0, 1, 2, 0.5}, {0, 0, 2, 0.5}, {-1, -1, -1, 1.0}};
  expect_rejected(decision_tree_text(nodes), "tree node 1 has child 0");
}

TEST(Serialize, TreeFeatureBelowLeafMarkerRejected) {
  auto nodes = stump();
  nodes[1].feature = -2;
  expect_rejected(decision_tree_text(nodes), "feature -2");
}

TEST(Serialize, EnsembleNegativeTreeCountRejected) {
  const std::string head = "mlaas-model 1\n";
  expect_rejected(head + "random_forest\n0 0\n-1\n", "negative random_forest tree count");
  expect_rejected(head + "boosted_trees\n0 0\n0.2\n0\n-1\n",
                  "negative boosted_trees tree count");
  expect_rejected(head + "decision_jungle\n0 0\n-1\n", "negative decision_jungle dag count");
  expect_rejected(head + "bagging\n0 0\n-1\n", "negative bagging member count");
}

// A one-member bagging model whose member was trained on columns `features`.
std::string bagging_text(const std::vector<int>& features, const std::vector<StumpNode>& nodes) {
  std::ostringstream out;
  out << "mlaas-model 1\nbagging\n0 0\n";
  model_io::write_int(out, 1);
  model_io::write_ivec(out, features);
  return out.str() + tree_text(nodes, static_cast<long long>(nodes.size()));
}

TEST(Serialize, BaggingHandBuiltModelLoads) {
  std::stringstream in(bagging_text({1}, stump()));
  const ClassifierPtr clf = load_model(in);
  EXPECT_EQ(clf->predict(Matrix{{9.0, 0.0}, {9.0, 1.0}}), (std::vector<int>{0, 1}));
}

TEST(Serialize, BaggingFeaturePastMapRejected) {
  auto nodes = stump();
  nodes[0].feature = 1;
  expect_rejected(bagging_text({3}, nodes), "splits on feature 1 past its 1-column feature map");
}

TEST(Serialize, BaggingNegativeMapColumnRejected) {
  expect_rejected(bagging_text({-3}, stump()), "negative column -3");
}

TEST(ModelIo, NegativeSizesRejected) {
  for (const char* text : {"-2 1 2", "-1 4\n"}) {
    std::stringstream vec(text);
    EXPECT_THROW(model_io::read_vec(vec), std::runtime_error) << text;
    std::stringstream ivec(text);
    EXPECT_THROW(model_io::read_ivec(ivec), std::runtime_error) << text;
    std::stringstream matrix(text);
    EXPECT_THROW(model_io::read_matrix(matrix), std::runtime_error) << text;
  }
}

TEST(ModelIo, PrimitivesRoundTrip) {
  std::stringstream buffer;
  model_io::write_double(buffer, 0.1234567890123456789);
  model_io::write_int(buffer, -42);
  model_io::write_string(buffer, "hello");
  model_io::write_vec(buffer, std::vector<double>{1.5, -2.5});
  model_io::write_ivec(buffer, std::vector<int>{7, 8, 9});
  Matrix m{{1, 2}, {3, 4}};
  model_io::write_matrix(buffer, m);

  EXPECT_DOUBLE_EQ(model_io::read_double(buffer), 0.1234567890123456789);
  EXPECT_EQ(model_io::read_int(buffer), -42);
  EXPECT_EQ(model_io::read_string(buffer), "hello");
  EXPECT_EQ(model_io::read_vec(buffer), (std::vector<double>{1.5, -2.5}));
  EXPECT_EQ(model_io::read_ivec(buffer), (std::vector<int>{7, 8, 9}));
  EXPECT_EQ(model_io::read_matrix(buffer), m);
}

TEST(ModelIo, StringsWithWhitespaceRejected) {
  std::stringstream buffer;
  EXPECT_THROW(model_io::write_string(buffer, "two words"), std::invalid_argument);
}

}  // namespace
}  // namespace mlaas
