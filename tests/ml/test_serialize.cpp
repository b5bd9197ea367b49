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
