// MultiLayerPerceptron::fit against the pre-rewrite training loop kept in
// tests/oracle: every activation x solver x depth must serialize to the same
// bytes, on a 40-feature dataset (vectorised update body) and a one-feature
// dataset with an odd hidden width (loop remainders), and the single-class
// early return must write the same model too.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>

#include "data/generators.h"
#include "ml/neural/mlp.h"
#include "ml/serialize.h"
#include "tests/oracle/mlp_fit.h"

namespace mlaas {
namespace {

std::string model_bytes(const ParamMap& params, std::uint64_t seed, const Matrix& x,
                        const std::vector<int>& y) {
  MultiLayerPerceptron clf(params, seed);
  clf.fit(x, y);
  std::ostringstream out;
  save_model(out, clf);
  return out.str();
}

Dataset dataset(std::size_t n_features, std::uint64_t seed) {
  MakeClassificationOptions opt;
  opt.n_samples = 120;
  opt.n_features = n_features;
  opt.n_informative = std::min<std::size_t>(n_features, 4);
  opt.n_redundant = n_features > 4 ? 2 : 0;
  return make_classification(opt, seed);
}

// Held as std::string so GetParam() prints the text rather than the addresses
// of string literals, which change from run to run and would change the test
// names ctest lists.
using MlpConfig = std::tuple<std::string, std::string, int>;

class MlpFitOracle : public ::testing::TestWithParam<MlpConfig> {};

TEST_P(MlpFitOracle, SavedModelBytesMatchReferenceLoop) {
  const auto& [activation, solver, layers] = GetParam();
  struct Case {
    std::size_t features;
    long long hidden;
  };
  for (const Case c : {Case{40, 12}, Case{1, 5}}) {
    SCOPED_TRACE("d=" + std::to_string(c.features) + " hidden=" + std::to_string(c.hidden));
    const Dataset ds = dataset(c.features, 11 + c.features);
    ParamMap params;
    params.set("activation", activation);
    params.set("solver", solver);
    params.set("layers", static_cast<long long>(layers));
    params.set("hidden", c.hidden);
    const std::string got = model_bytes(params, 17, ds.x(), ds.y());
    EXPECT_EQ(got, oracle::reference_mlp_model_bytes(params, 17, ds.x(), ds.y()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, MlpFitOracle,
    ::testing::Combine(::testing::Values("relu", "tanh", "logistic"),
                       ::testing::Values("adam", "sgd"), ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<MlpConfig>& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param) + "_" +
             std::to_string(std::get<2>(info.param)) + "layers";
    });

TEST(MlpFitOracleSingleClass, EarlyReturnMatchesReferenceLoop) {
  const Matrix x{{1, 2}, {3, 4}, {5, 6}};
  for (const int label : {0, 1}) {
    const std::vector<int> y(3, label);
    EXPECT_EQ(model_bytes({}, 3, x, y), oracle::reference_mlp_model_bytes({}, 3, x, y))
        << "label " << label;
  }
}

}  // namespace
}  // namespace mlaas
