// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded only around the library's public calls that the
// benchmark makes (and, through TimedPlatform, around every Platform::train
// and TrainedModel::predict the library makes on the benchmark's behalf).
// Each thread appends to its own buffer, so recording takes no lock after a
// thread's first span; buffers are collected when the run ends.  While
// recording is off a ScopedSpan costs one relaxed atomic load.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = no parent
  std::uint32_t thread = 0;  // recorder-assigned thread index
  const char* name = "";     // static string: "fit", "predict", "router.submit", ...
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double cpu_s = 0.0;        // thread CPU over the span (fit/predict only)
  std::size_t rows = 0;      // predict rows
  std::string tag;           // "<platform>.<classifier>" for fit/predict
  std::string key;           // cell key (dataset|config) or request ticket

  double wall_s() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Start/stop recording.  start() discards spans of a previous recording;
/// stop() returns every span recorded since start(), ordered by id.  Call
/// both from the benchmark's main thread with no worker threads alive.
void start_recording();
std::vector<Span> stop_recording();

/// Spans opened on a thread with no open span of its own (the campaign's
/// pool workers) take this span as their parent.
void set_root(std::uint64_t id);

/// RAII span.  `name` must be a string literal.  Does nothing while
/// recording is off; with `thread_cpu` it also measures thread CPU time.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, bool thread_cpu = false);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return span_ != nullptr; }
  std::uint64_t id() const;
  void set_tag(std::string tag);
  void set_key(std::string key);
  void set_rows(std::size_t rows);

 private:
  Span* span_ = nullptr;  // slot in this thread's buffer
  double cpu0_ = 0.0;
  bool thread_cpu_ = false;
};

/// Per-name totals derived from a span list.  Self time is a span's
/// duration minus the union of its same-thread children's intervals.
struct NameTotals {
  std::size_t count = 0;
  double wall_s = 0.0;
  double self_s = 0.0;
  double cpu_s = 0.0;
  std::size_t rows = 0;
  std::vector<double> durations_s;  // per span, for percentiles
};

struct SpanSummary {
  std::map<std::string, NameTotals> by_name;
  /// fit/predict thread-CPU and wall per tag ("<platform>.<classifier>").
  std::map<std::string, double> fit_cpu_by_tag;
  std::map<std::string, double> predict_cpu_by_tag;
  double min_self_s = 0.0;  // smallest self time of any span (must be >= 0)
  std::size_t spans = 0;
};

SpanSummary summarize(const std::vector<Span>& spans);

/// Nearest-rank `q` quantile (0 < q <= 1) of `values`; 0 when empty.
double percentile(std::vector<double> values, double q);

/// Write spans as TSV (id, parent, thread, name, start_ns, end_ns, cpu_s,
/// rows, tag, key); throws std::runtime_error when the file cannot be written.
void write_spans_tsv(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
