// Classifier interface.
//
// All classifiers are binary (labels {0,1}), are constructed from a ParamMap
// plus a seed, and report a probability-like score for class 1.  A
// classifier declares whether its decision boundary is linear — the family
// label used throughout §6 of the paper (Table 5).
//
// Each classifier has one predict path: predict_score_into() is the only
// virtual scorer, and predict_score(), predict() and predict_into() are
// base-class wrappers over it.  The per-row scoring loops its batched
// kernels replaced live on as test-only oracles (tests/oracle/predict.h),
// which the equivalence suites compare against bit for bit.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "ml/params.h"

namespace mlaas {

class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Train on X (n x d) with labels y in {0,1}.  Implementations must
  /// tolerate single-class training sets (predict the constant class).
  virtual void fit(const Matrix& x, const std::vector<int>& y) = 0;

  /// P(class == 1)-like score in [0, 1] per row, written into `out`
  /// (resized to x.rows()).  A caller that keeps `out` alive across calls
  /// predicts repeatedly without reallocating.  Must only be called after
  /// fit() or load(); the public wrappers below check that and throw
  /// std::logic_error("<name>: predict before fit") otherwise.  The one
  /// scorer every classifier implements.
  virtual void predict_score_into(const Matrix& x, std::vector<double>& out) const = 0;

  /// predict_score_into() into a fresh vector.
  std::vector<double> predict_score(const Matrix& x) const;

  /// Hard labels: score > 0.5.
  std::vector<int> predict(const Matrix& x) const;

  /// predict() with caller-owned score scratch: `labels` is resized and
  /// filled, `score_scratch` is reused across calls.  Labels are identical
  /// to predict().
  void predict_into(const Matrix& x, std::vector<double>& score_scratch,
                    std::vector<int>& labels) const;

  /// Registry name, e.g. "logistic_regression".
  virtual std::string name() const = 0;

  /// Linear decision boundary? (Table 5's linear/non-linear families.)
  virtual bool is_linear() const = 0;

  /// Serialize the fitted state (including predict-time hyper-parameters);
  /// restore with load() on a default-constructed instance.  See
  /// ml/serialize.h for the framing format and save_model()/load_model().
  virtual void save(std::ostream& out) const = 0;
  virtual void load(std::istream& in) = 0;

 protected:
  /// Shared single-class handling: returns true (and records the class) if
  /// y is constant; fill_single_class() then scores that constant.  Every
  /// fit() calls it, so it also marks the classifier fitted.
  bool check_single_class(const std::vector<int>& y);
  bool single_class() const { return single_class_; }

  /// Shared predict_score_into() prologue: when the training set was
  /// single-class, fills `out` with the constant score and returns true.
  bool fill_single_class(std::size_t rows, std::vector<double>& out) const;

  /// Serialize/restore the shared single-class state; every concrete
  /// save()/load() implementation calls these first.  load_base() marks the
  /// classifier fitted; the mark itself is not serialized.
  void save_base(std::ostream& out) const;
  void load_base(std::istream& in);

 private:
  /// Throws std::logic_error unless fit() or load() has run.
  void require_fitted() const;

  bool fitted_ = false;
  bool single_class_ = false;
  int single_class_label_ = 0;
};

using ClassifierPtr = std::unique_ptr<Classifier>;

/// Count of label-1 entries.
std::size_t count_positive(const std::vector<int>& y);

/// Convert {0,1} labels to {-1,+1} doubles (margin-based learners).
std::vector<double> to_signed_labels(const std::vector<int>& y);

}  // namespace mlaas
