#ifndef TCF_OBS_METRICS_REGISTRY_H_
#define TCF_OBS_METRICS_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace tcf {

/// \file
/// \brief Process metrics for the serving layer (docs/observability.md).
///
/// A MetricsRegistry holds named counters, gauges, and log-bucketed
/// histograms and renders them in the Prometheus text exposition format
/// (served by the `METRICS` protocol verb). The design splits hot from
/// cold: *recording* never takes a mutex — counters and histograms are
/// striped relaxed atomics, sized so concurrent workers land on
/// different cache lines — while *registration* and *rendering* (a
/// handful of calls per process lifetime / scrape) take one registry
/// mutex. Instruments are arena-allocated and never move or die before
/// the registry does, so callers cache `Counter&` references at startup
/// and record through them for free.

/// Destructive-interference guard for the stripe arrays: one stripe per
/// cache line, so two workers bumping different stripes never ping-pong
/// a line between cores.
inline constexpr size_t kMetricCacheLine = 64;

/// \brief Monotonic counter. Value() folds the stripes; Increment() is
/// one relaxed fetch_add on the calling thread's stripe.
class Counter {
 public:
  static constexpr size_t kStripes = 16;

  void Increment(uint64_t n = 1);
  uint64_t Value() const;

 private:
  struct alignas(kMetricCacheLine) Stripe {
    std::atomic<uint64_t> value{0};
    char pad[kMetricCacheLine - sizeof(std::atomic<uint64_t>)];
  };
  std::array<Stripe, kStripes> stripes_{};
};

/// \brief Last-write-wins instantaneous value (e.g. a high-water mark
/// mirrored out of another subsystem).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double v);
  /// Raises the value to `v` when `v` is larger (a high-water mark).
  void SetMax(double v);
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// \brief Log2-bucketed histogram for positive samples (microseconds,
/// node counts, frontier widths). Bucket upper bounds are 1, 2, 4, ...,
/// 2^20, +Inf — 22 buckets spanning sub-microsecond to ~1 s with ≤ 2×
/// relative error, which is all a latency tail needs. Recording is two
/// relaxed atomic adds (bucket + count) and one CAS-add (sum) on the
/// calling thread's stripe; no mutex, no allocation.
class Histogram {
 public:
  static constexpr size_t kBuckets = 22;  // le=2^0 .. 2^20, then +Inf
  static constexpr size_t kStripes = 8;

  void Record(double value);

  /// Point-in-time fold of all stripes.
  struct Snapshot {
    std::array<uint64_t, kBuckets> buckets{};  // per-bucket counts
    uint64_t count = 0;
    double sum = 0;
  };
  Snapshot Fold() const;

  /// Upper bound of bucket `i` (+Inf for the last), for rendering.
  static double BucketBound(size_t i);

 private:
  struct alignas(kMetricCacheLine) Stripe {
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0};
  };
  std::array<Stripe, kStripes> stripes_{};
};

/// Estimates quantile `q` (in [0,1]) from a folded histogram by linear
/// interpolation inside the bucket where the cumulative count crosses
/// q·count — the standard Prometheus `histogram_quantile` arithmetic,
/// so a scraped p99 gauge and a recording rule agree. Samples landing
/// in the +Inf bucket clamp to the last finite bound (the estimate is
/// a floor there, not a lie about magnitude). Returns 0 for an empty
/// histogram.
double HistogramQuantile(const Histogram::Snapshot& snap, double q);

/// \brief Named-instrument registry with Prometheus text rendering.
///
/// Get* registers on first use and returns a stable reference (the
/// arena outlives every caller holding one, registries being owned by
/// the long-lived QueryService). RegisterCallback adds a scrape-time
/// instrument for values another subsystem already maintains (cache
/// residency, active connections): the callback runs under the registry
/// mutex during Render, so it must be cheap and must not call back into
/// the registry. Metric names follow Prometheus conventions:
/// `tcf_<noun>_total` for counters, `_us` suffix for microsecond
/// histograms.
class MetricsRegistry {
 public:
  enum class CallbackKind { kCounter, kGauge };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name, const std::string& help);
  Gauge& GetGauge(const std::string& name, const std::string& help);
  Histogram& GetHistogram(const std::string& name, const std::string& help);
  /// A gauge that Render leaves out: a value a view folds (STATS's
  /// batch_max_depth) without a METRICS family of its own.
  Gauge& GetUnexportedGauge(const std::string& name);

  /// Scrape-time instrument: `fn()` is sampled on every Render.
  void RegisterCallback(const std::string& name, const std::string& help,
                        CallbackKind kind, std::function<double()> fn);

  /// Renders every registered instrument in the Prometheus text
  /// exposition format (# HELP / # TYPE preambles, `_bucket{le=...}` /
  /// `_sum` / `_count` series for histograms), names in lexicographic
  /// order. Values are a point-in-time fold; different instruments may
  /// be torn relative to each other (scrapes are not transactions).
  std::string Render() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kCallback };
  struct Entry {
    Kind kind;
    bool exported = true;
    std::string help;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
    CallbackKind callback_kind = CallbackKind::kGauge;
    std::function<double()> callback;
  };

  Entry& Register(const std::string& name, const std::string& help,
                  Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // sorted render order
  // Instrument arenas: deque for stable addresses across growth.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
};

}  // namespace tcf

#endif  // TCF_OBS_METRICS_REGISTRY_H_
