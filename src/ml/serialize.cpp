#include "ml/serialize.h"

#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "ml/registry.h"

namespace mlaas {

namespace model_io {

void write_double(std::ostream& out, double v) {
  const auto old = out.precision(std::numeric_limits<double>::max_digits10);
  out << v << '\n';
  out.precision(old);
}

double read_double(std::istream& in) {
  double v = 0.0;
  in >> v;
  check(in, "double");
  return v;
}

void write_int(std::ostream& out, long long v) { out << v << '\n'; }

long long read_int(std::istream& in) {
  long long v = 0;
  in >> v;
  check(in, "int");
  return v;
}

std::size_t read_count(std::istream& in, const char* what) {
  const long long n = read_int(in);
  if (n < 0) throw std::runtime_error(std::string("load_model: negative ") + what);
  return static_cast<std::size_t>(n);
}

void write_string(std::ostream& out, const std::string& s) {
  if (s.find_first_of(" \t\n") != std::string::npos) {
    throw std::invalid_argument("model_io: strings must not contain whitespace: " + s);
  }
  out << s << '\n';
}

std::string read_string(std::istream& in) {
  std::string s;
  in >> s;
  check(in, "string");
  return s;
}

void write_vec(std::ostream& out, std::span<const double> v) {
  const auto old = out.precision(std::numeric_limits<double>::max_digits10);
  out << v.size();
  for (double x : v) out << ' ' << x;
  out << '\n';
  out.precision(old);
}

std::vector<double> read_vec(std::istream& in) {
  std::vector<double> v(read_count(in, "vec size"));
  for (auto& x : v) in >> x;
  check(in, "vec data");
  return v;
}

void write_ivec(std::ostream& out, std::span<const int> v) {
  out << v.size();
  for (int x : v) out << ' ' << x;
  out << '\n';
}

std::vector<int> read_ivec(std::istream& in) {
  std::vector<int> v(read_count(in, "ivec size"));
  for (auto& x : v) in >> x;
  check(in, "ivec data");
  return v;
}

void write_matrix(std::ostream& out, const Matrix& m) {
  out << m.rows() << ' ' << m.cols() << '\n';
  const auto old = out.precision(std::numeric_limits<double>::max_digits10);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto row = m.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) out << (c ? " " : "") << row[c];
    out << '\n';
  }
  out.precision(old);
}

Matrix read_matrix(std::istream& in) {
  const std::size_t rows = read_count(in, "matrix rows");
  const std::size_t cols = read_count(in, "matrix cols");
  Matrix m(rows, cols);
  for (double& v : m.data()) in >> v;
  check(in, "matrix data");
  return m;
}

void check(std::istream& in, const char* context) {
  if (!in) throw std::runtime_error(std::string("load_model: truncated or malformed ") + context);
}

}  // namespace model_io

namespace {
constexpr const char* kMagic = "mlaas-model";
constexpr int kVersion = 1;
}  // namespace

void save_model(std::ostream& out, const Classifier& classifier) {
  out << kMagic << ' ' << kVersion << '\n';
  model_io::write_string(out, classifier.name());
  classifier.save(out);
  if (!out) throw std::runtime_error("save_model: stream write failed");
}

ClassifierPtr load_model(std::istream& in) {
  std::string magic;
  int version = 0;
  in >> magic >> version;
  if (!in || magic != kMagic) throw std::runtime_error("load_model: bad magic header");
  if (version != kVersion) {
    throw std::runtime_error("load_model: unsupported version " + std::to_string(version));
  }
  const std::string name = model_io::read_string(in);
  ClassifierPtr classifier = make_classifier(name);
  classifier->load(in);
  return classifier;
}

}  // namespace mlaas
