// Model persistence.
//
// Fitted classifiers serialize to a line-oriented text format:
//
//   mlaas-model 1
//   <registry-name>
//   <class-specific state>
//
// save_model / load_model round-trip any registry classifier; the state
// includes every hyper-parameter the model needs at predict time, so a
// loaded model predicts identically to the saved one.
//
//   std::ofstream out("model.txt");
//   save_model(out, *classifier);
//   ...
//   std::ifstream in("model.txt");
//   ClassifierPtr restored = load_model(in);
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "ml/classifier.h"

namespace mlaas {

void save_model(std::ostream& out, const Classifier& classifier);

/// Reads a model written by save_model; throws std::runtime_error on a bad
/// magic header or truncated state.
ClassifierPtr load_model(std::istream& in);

/// Low-level token readers/writers shared by the per-classifier
/// implementations (text, whitespace-separated, full double precision).
namespace model_io {

void write_double(std::ostream& out, double v);
double read_double(std::istream& in);
void write_int(std::ostream& out, long long v);
long long read_int(std::istream& in);
void write_string(std::ostream& out, const std::string& s);  // no whitespace allowed
std::string read_string(std::istream& in);
void write_vec(std::ostream& out, std::span<const double> v);
std::vector<double> read_vec(std::istream& in);
void write_ivec(std::ostream& out, std::span<const int> v);
std::vector<int> read_ivec(std::istream& in);
/// An element count; throws std::runtime_error naming `what` when negative.
std::size_t read_count(std::istream& in, const char* what);
void write_matrix(std::ostream& out, const Matrix& m);
Matrix read_matrix(std::istream& in);

/// Throws std::runtime_error when the stream has failed.
void check(std::istream& in, const char* context);

}  // namespace model_io

}  // namespace mlaas
