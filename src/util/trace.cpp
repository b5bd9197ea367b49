#include "util/trace.h"

#include <utility>

#include "util/io.h"

namespace mlaas {
namespace {

void write_args(std::ostream& out, const TraceEvent& event) {
  out << "\"args\":{";
  for (std::size_t i = 0; i < event.args.size(); ++i) {
    if (i > 0) out << ",";
    out << "\"" << json_escape(event.args[i].first) << "\":\""
        << json_escape(event.args[i].second) << "\"";
  }
  out << "}";
}

}  // namespace

TraceTrack::TraceTrack(std::string name, std::size_t capacity)
    : name_(std::move(name)), capacity_(capacity == 0 ? 1 : capacity) {}

void TraceTrack::push(TraceEvent event) {
  if (events_.size() < capacity_) {
    events_.push_back(std::move(event));
    return;
  }
  // Ring overflow: evict the oldest event.  head_ is both the slot to
  // overwrite and, afterwards, the index of the new oldest survivor.
  events_[head_] = std::move(event);
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

void TraceTrack::span(const char* category, std::string name, double ts, double dur,
                      std::vector<std::pair<std::string, std::string>> args) {
  TraceEvent event;
  event.phase = TraceEvent::Phase::kSpan;
  event.category = category;
  event.name = std::move(name);
  event.ts = ts;
  event.dur = dur;
  event.args = std::move(args);
  push(std::move(event));
}

void TraceTrack::instant(const char* category, std::string name, double ts,
                         std::vector<std::pair<std::string, std::string>> args) {
  TraceEvent event;
  event.phase = TraceEvent::Phase::kInstant;
  event.category = category;
  event.name = std::move(name);
  event.ts = ts;
  event.args = std::move(args);
  push(std::move(event));
}

Trace::Trace(std::size_t track_capacity) : track_capacity_(track_capacity) {}

TraceTrack& Trace::track(const std::string& name) {
  const auto it = index_.find(name);
  if (it != index_.end()) return tracks_[it->second];
  index_.emplace(name, tracks_.size());
  tracks_.emplace_back(name, track_capacity_);
  return tracks_.back();
}

void Trace::adopt(TraceTrack track) {
  index_.emplace(track.name(), tracks_.size());
  tracks_.push_back(std::move(track));
}

std::size_t Trace::event_count() const {
  std::size_t n = 0;
  for (const TraceTrack& t : tracks_) n += t.size();
  return n;
}

std::size_t Trace::span_count() const {
  std::size_t n = 0;
  for (const TraceTrack& t : tracks_) {
    t.for_each([&n](const TraceEvent& e) {
      if (e.phase == TraceEvent::Phase::kSpan) ++n;
    });
  }
  return n;
}

std::size_t Trace::instant_count() const {
  std::size_t n = 0;
  for (const TraceTrack& t : tracks_) {
    t.for_each([&n](const TraceEvent& e) {
      if (e.phase == TraceEvent::Phase::kInstant) ++n;
    });
  }
  return n;
}

std::size_t Trace::dropped() const {
  std::size_t n = 0;
  for (const TraceTrack& t : tracks_) n += t.dropped();
  return n;
}

MetricsRegistry Trace::metrics() const {
  MetricsRegistry registry;
  registry.counter("tracks") = static_cast<double>(track_count());
  registry.counter("spans") = static_cast<double>(span_count());
  registry.counter("instants") = static_cast<double>(instant_count());
  registry.counter("dropped") = static_cast<double>(dropped());
  // Per-category counts in canonical order: track order, then record order.
  for (const TraceTrack& t : tracks_) {
    t.for_each([&registry](const TraceEvent& e) {
      registry.counter(std::string("cat:") + e.category) += 1.0;
    });
  }
  return registry;
}

std::string Trace::summary() const { return metrics().encode(); }

void Trace::write_chrome_json(std::ostream& out) const {
  out.precision(17);
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t tid = 0; tid < tracks_.size(); ++tid) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << json_escape(tracks_[tid].name()) << "\"}}";
  }
  for (std::size_t tid = 0; tid < tracks_.size(); ++tid) {
    tracks_[tid].for_each([&out, &first, tid](const TraceEvent& e) {
      if (!first) out << ",\n";
      first = false;
      // Simulated seconds → Chrome microseconds, default float format at
      // precision 17: lossless round-trip and byte-stable across runs.
      if (e.phase == TraceEvent::Phase::kSpan) {
        out << "{\"ph\":\"X\",\"pid\":0,\"tid\":" << tid << ",\"cat\":\""
            << json_escape(e.category) << "\",\"name\":\"" << json_escape(e.name)
            << "\",\"ts\":" << e.ts * 1e6 << ",\"dur\":" << e.dur * 1e6 << ",";
      } else {
        out << "{\"ph\":\"i\",\"pid\":0,\"tid\":" << tid << ",\"s\":\"t\",\"cat\":\""
            << json_escape(e.category) << "\",\"name\":\"" << json_escape(e.name)
            << "\",\"ts\":" << e.ts * 1e6 << ",";
      }
      write_args(out, e);
      out << "}";
    });
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void Trace::save_json(const std::string& path) const {
  std::ofstream out = open_sidecar(path, "Trace");
  write_chrome_json(out);
  finish_sidecar(out, path, "Trace");
}

}  // namespace mlaas
