// Test-only reference oracles: verbatim copies of production loops that an
// optimised rewrite replaced, kept so equivalence tests can compare the new
// code against the old bit for bit, and the micro-benchmark gates can time
// it against them.  They build as the mlaas_oracle library (tests/oracle/),
// which nothing under src/ or perfbench/ links.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "ml/params.h"

namespace mlaas::oracle {

/// MultiLayerPerceptron::fit as it was before the vectorised update loop:
/// activation dispatch by string compare per neuron, fresh vectors for every
/// forward/backward step, and one update loop with the solver branch inside.
/// Fits a fresh model on (x, y) with the constructor's parameter handling
/// and returns the bytes save_model writes for it.
std::string reference_mlp_model_bytes(const ParamMap& params, std::uint64_t seed,
                                      const Matrix& x, const std::vector<int>& y);

}  // namespace mlaas::oracle
