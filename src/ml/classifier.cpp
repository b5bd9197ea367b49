#include "ml/classifier.h"

#include <istream>
#include <ostream>
#include <stdexcept>

namespace mlaas {

void Classifier::save_base(std::ostream& out) const {
  out << (single_class_ ? 1 : 0) << ' ' << single_class_label_ << '\n';
}

void Classifier::load_base(std::istream& in) {
  int flag = 0;
  in >> flag >> single_class_label_;
  if (!in) throw std::runtime_error("load_model: truncated classifier base state");
  single_class_ = flag != 0;
}

void Classifier::predict_score_into(const Matrix& x, std::vector<double>& out) const {
  out = predict_score(x);
}

std::vector<int> Classifier::predict(const Matrix& x) const {
  const auto scores = predict_score(x);
  std::vector<int> labels(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) labels[i] = scores[i] > 0.5 ? 1 : 0;
  return labels;
}

void Classifier::predict_into(const Matrix& x, std::vector<double>& score_scratch,
                              std::vector<int>& labels) const {
  predict_score_into(x, score_scratch);
  labels.resize(score_scratch.size());
  for (std::size_t i = 0; i < score_scratch.size(); ++i) {
    labels[i] = score_scratch[i] > 0.5 ? 1 : 0;
  }
}

bool Classifier::fill_single_class(std::size_t rows, std::vector<double>& out) const {
  if (!single_class_) return false;
  out.assign(rows, single_class_score());
  return true;
}

bool Classifier::check_single_class(const std::vector<int>& y) {
  const std::size_t pos = count_positive(y);
  single_class_ = y.empty() || pos == 0 || pos == y.size();
  if (single_class_) single_class_label_ = pos > 0 ? 1 : 0;
  return single_class_;
}

std::size_t count_positive(const std::vector<int>& y) {
  std::size_t pos = 0;
  for (int v : y) pos += v == 1 ? 1 : 0;
  return pos;
}

std::vector<double> to_signed_labels(const std::vector<int>& y) {
  std::vector<double> out(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) out[i] = y[i] == 1 ? 1.0 : -1.0;
  return out;
}

}  // namespace mlaas
