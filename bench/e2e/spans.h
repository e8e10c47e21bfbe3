// In-memory span recording for the end-to-end benchmark's traced run.
//
// Spans are recorded only by the benchmark's own code, around its calls
// into each layer's public functions; nothing inside src/ is
// instrumented. Each span carries its name ("layer.Function"), start,
// end, parent and request id. Spans stay in per-thread buffers while
// the run measures and are written out once, as Chrome trace-event
// JSON, when the run exits (bench/e2e/trace_report.py reads the file).
#ifndef TCF_BENCH_E2E_SPANS_H_
#define TCF_BENCH_E2E_SPANS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace tcf::e2e {

/// Monotonic nanoseconds: the time base of every span and every due time.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // static "layer.Function"
  const char* cat = "";   // static phase: loadgen, replay, update, build
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;      // unique in the run, never 0
  uint64_t parent = 0;  // 0 = root span of its request
  uint64_t request = 0;
  uint32_t track = 0;  // recording thread (the Chrome "tid")

  double DurationUs() const { return (end_ns - start_ns) / 1e3; }
};

/// Spans recorded by one thread. Not thread-safe: one buffer per thread.
class SpanBuffer {
 public:
  explicit SpanBuffer(uint32_t track) : track_(track) {}

  /// Reserves an id, for a parent whose children finish before it does.
  uint64_t NextId() { return (uint64_t{track_} << 40) | ++counter_; }

  /// Appends a finished span; returns its id. `id` 0 draws a fresh one.
  uint64_t Record(const char* name, const char* cat, int64_t start_ns,
                  int64_t end_ns, uint64_t request, uint64_t parent,
                  uint64_t id = 0) {
    if (id == 0) id = NextId();
    spans_.push_back(
        {name, cat, start_ns, end_ns, id, parent, request, track_});
    return id;
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  uint32_t track_;
  uint64_t counter_ = 0;
  std::vector<Span> spans_;
};

/// Times its scope into `buffer`; a null buffer records nothing and
/// reads no clock, which is how the untraced run stays span-free.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, const char* cat,
             uint64_t request, uint64_t parent = 0)
      : buffer_(buffer), name_(name), cat_(cat), request_(request),
        parent_(parent) {
    if (buffer_ != nullptr) {
      id_ = buffer_->NextId();
      start_ns_ = NowNs();
    }
  }
  ~ScopedSpan() {
    if (buffer_ != nullptr) {
      buffer_->Record(name_, cat_, start_ns_, NowNs(), request_, parent_,
                      id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Parent id for child spans (0 while tracing is off).
  uint64_t id() const { return id_; }

 private:
  SpanBuffer* buffer_;
  const char* name_;
  const char* cat_;
  uint64_t request_;
  uint64_t parent_;
  uint64_t id_ = 0;
  int64_t start_ns_ = 0;
};

/// Every span of the run, merged from the thread buffers.
class SpanLog {
 public:
  /// Moves `buffer`'s spans in. Thread-safe.
  void Merge(SpanBuffer& buffer);

  /// Durations (µs) of the spans named `name`, in recording order.
  std::vector<double> DurationsUs(const std::string& name) const;

  /// Sum of the durations (µs) of the spans named `name` per request id,
  /// indexed by `request - first_request` over `count` requests.
  std::vector<double> PerRequestUs(const std::string& name,
                                   uint64_t first_request,
                                   size_t count) const;

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as a Chrome trace-event "X" record (µs times
  /// relative to the first span; args carry id, parent and request).
  Status WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace tcf::e2e

#endif  // TCF_BENCH_E2E_SPANS_H_
