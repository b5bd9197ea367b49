#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <fstream>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "util/clock.h"

namespace perfbench {

namespace {

struct ThreadBuffer {
  std::uint32_t index = 0;
  std::deque<Span> spans;            // deque: open spans keep their address
  std::vector<std::uint64_t> open;   // ids of this thread's open spans
};

struct Recorder {
  std::atomic<bool> on{false};
  std::atomic<std::uint64_t> generation{0};
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::uint64_t> root{0};
  std::mutex mu;  // guards buffers
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

Recorder& recorder() {
  static Recorder r;
  return r;
}

thread_local ThreadBuffer* tl_buffer = nullptr;
thread_local std::uint64_t tl_generation = 0;

ThreadBuffer* this_thread_buffer() {
  Recorder& r = recorder();
  const std::uint64_t gen = r.generation.load(std::memory_order_acquire);
  if (tl_buffer == nullptr || tl_generation != gen) {
    std::lock_guard lock(r.mu);
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->index = static_cast<std::uint32_t>(r.buffers.size());
    tl_buffer = buffer.get();
    tl_generation = gen;
    r.buffers.push_back(std::move(buffer));
  }
  return tl_buffer;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void start_recording() {
  Recorder& r = recorder();
  std::lock_guard lock(r.mu);
  r.buffers.clear();
  r.root.store(0);
  r.generation.fetch_add(1, std::memory_order_release);
  r.on.store(true);
}

std::vector<Span> stop_recording() {
  Recorder& r = recorder();
  r.on.store(false);
  std::vector<Span> out;
  std::lock_guard lock(r.mu);
  for (auto& buffer : r.buffers) {
    for (auto& span : buffer->spans) out.push_back(std::move(span));
    buffer->spans.clear();
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

void set_root(std::uint64_t id) { recorder().root.store(id); }

ScopedSpan::ScopedSpan(const char* name, bool thread_cpu) : thread_cpu_(thread_cpu) {
  Recorder& r = recorder();
  if (!r.on.load(std::memory_order_relaxed)) return;
  ThreadBuffer* buffer = this_thread_buffer();
  Span& span = buffer->spans.emplace_back();
  span.id = r.next_id.fetch_add(1, std::memory_order_relaxed);
  span.parent = buffer->open.empty() ? r.root.load(std::memory_order_relaxed)
                                     : buffer->open.back();
  span.thread = buffer->index;
  span.name = name;
  buffer->open.push_back(span.id);
  span_ = &span;
  if (thread_cpu_) cpu0_ = mlaas::thread_cpu_seconds();
  span.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (span_ == nullptr) return;
  span_->end_ns = now_ns();
  if (thread_cpu_) span_->cpu_s = mlaas::thread_cpu_seconds() - cpu0_;
  // The span was opened on this thread in the current generation, so the
  // buffer is still this thread's.
  tl_buffer->open.pop_back();
}

std::uint64_t ScopedSpan::id() const { return span_ != nullptr ? span_->id : 0; }

void ScopedSpan::set_tag(std::string tag) {
  if (span_ != nullptr) span_->tag = std::move(tag);
}

void ScopedSpan::set_key(std::string key) {
  if (span_ != nullptr) span_->key = std::move(key);
}

void ScopedSpan::set_rows(std::size_t rows) {
  if (span_ != nullptr) span_->rows = rows;
}

SpanSummary summarize(const std::vector<Span>& spans) {
  SpanSummary summary;
  summary.spans = spans.size();
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);

  // Same-thread children run strictly inside their parent and one after
  // another, so the union of their intervals is the sum of their durations.
  // Children on other threads (pool workers under the campaign span) overlap
  // each other and are not subtracted.
  std::vector<double> covered(spans.size(), 0.0);
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (it != index.end() && spans[it->second].thread == s.thread) {
      covered[it->second] += s.wall_s();
    }
  }
  summary.min_self_s = spans.empty() ? 0.0 : std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double self = s.wall_s() - covered[i];
    summary.min_self_s = std::min(summary.min_self_s, self);
    NameTotals& t = summary.by_name[s.name];
    ++t.count;
    t.wall_s += s.wall_s();
    t.self_s += self;
    t.cpu_s += s.cpu_s;
    t.rows += s.rows;
    t.durations_s.push_back(s.wall_s());
    if (std::string_view(s.name) == "fit") summary.fit_cpu_by_tag[s.tag] += s.cpu_s;
    if (std::string_view(s.name) == "predict") summary.predict_cpu_by_tag[s.tag] += s.cpu_s;
  }
  return summary;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

void write_spans_tsv(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  out << "id\tparent\tthread\tname\tstart_ns\tend_ns\tcpu_s\trows\ttag\tkey\n";
  for (const Span& s : spans) {
    out << s.id << '\t' << s.parent << '\t' << s.thread << '\t' << s.name << '\t'
        << s.start_ns << '\t' << s.end_ns << '\t' << s.cpu_s << '\t' << s.rows << '\t'
        << s.tag << '\t' << s.key << '\n';
  }
  out.flush();
  if (!out) throw std::runtime_error("cannot write span file " + path);
}

}  // namespace perfbench
