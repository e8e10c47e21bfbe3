#include "obs/metrics_registry.h"

#include <cmath>
#include <functional>
#include <limits>
#include <thread>

#include "util/logging.h"
#include "util/string_util.h"

namespace tcf {
namespace {

/// Stripe choice: hash of the thread id, computed once per thread. Two
/// threads may share a stripe (kStripes is a bound, not a guarantee) —
/// correctness never depends on exclusivity, only the contention odds.
size_t ThisThreadStripe(size_t num_stripes) {
  static thread_local const size_t h =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return h % num_stripes;
}

/// Relaxed CAS-add for atomic<double> (no fetch_add overload pre-C++20
/// on every libstdc++ we build against).
void AtomicAdd(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

/// Renders a sample value the way Prometheus expects: integral values
/// without a fractional part, everything else with enough digits.
std::string RenderValue(double v) {
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::abs(v) < 1e15) {
    return StrFormat("%lld", static_cast<long long>(v));
  }
  return StrFormat("%.6g", v);
}

}  // namespace

void Counter::Increment(uint64_t n) {
  stripes_[ThisThreadStripe(kStripes)].value.fetch_add(
      n, std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Stripe& s : stripes_) {
    total += s.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Gauge::Add(double v) { AtomicAdd(value_, v); }

void Gauge::SetMax(double v) {
  double cur = value_.load(std::memory_order_relaxed);
  while (v > cur &&
         !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

double Histogram::BucketBound(size_t i) {
  if (i + 1 >= kBuckets) return std::numeric_limits<double>::infinity();
  return static_cast<double>(uint64_t{1} << i);
}

void Histogram::Record(double value) {
  // Bucket index = ceil(log2(value)) clamped to the range; <= 1 lands in
  // bucket 0, anything past 2^20 in the +Inf bucket. The loop is at most
  // 21 shifts — cheaper than a libm log2 call and exact at the bounds.
  size_t b = 0;
  while (b + 1 < kBuckets && value > BucketBound(b)) ++b;
  Stripe& s = stripes_[ThisThreadStripe(kStripes)];
  s.buckets[b].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(s.sum, value);
}

Histogram::Snapshot Histogram::Fold() const {
  Snapshot snap;
  for (const Stripe& s : stripes_) {
    for (size_t b = 0; b < kBuckets; ++b) {
      snap.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
    snap.count += s.count.load(std::memory_order_relaxed);
    snap.sum += s.sum.load(std::memory_order_relaxed);
  }
  return snap;
}

double HistogramQuantile(const Histogram::Snapshot& snap, double q) {
  if (snap.count == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  const double rank = q * static_cast<double>(snap.count);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < Histogram::kBuckets; ++b) {
    const uint64_t in_bucket = snap.buckets[b];
    if (in_bucket == 0) continue;
    const double below = static_cast<double>(cumulative);
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) < rank) continue;
    const double hi = Histogram::BucketBound(b);
    if (std::isinf(hi)) {
      // +Inf bucket: report the last finite bound rather than inventing
      // an upper edge to interpolate against.
      return Histogram::BucketBound(Histogram::kBuckets - 2);
    }
    const double lo = b == 0 ? 0 : Histogram::BucketBound(b - 1);
    const double frac = (rank - below) / static_cast<double>(in_bucket);
    return lo + (hi - lo) * frac;
  }
  return Histogram::BucketBound(Histogram::kBuckets - 2);
}

MetricsRegistry::Entry& MetricsRegistry::Register(const std::string& name,
                                                  const std::string& help,
                                                  Kind kind) {
  auto [it, inserted] = entries_.try_emplace(name);
  Entry& entry = it->second;
  if (!inserted) {
    // Same-name re-registration returns the existing instrument; a kind
    // clash is a programming error worth failing loudly on.
    TCF_CHECK_MSG(entry.kind == kind,
                  "metric '" << name << "' re-registered with another kind");
    return entry;
  }
  entry.kind = kind;
  entry.help = help;
  switch (kind) {
    case Kind::kCounter:
      entry.counter = &counters_.emplace_back();
      break;
    case Kind::kGauge:
      entry.gauge = &gauges_.emplace_back();
      break;
    case Kind::kHistogram:
      entry.histogram = &histograms_.emplace_back();
      break;
    case Kind::kCallback:
      break;  // callback assigned by the caller
  }
  return entry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  return *Register(name, help, Kind::kCounter).counter;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  return *Register(name, help, Kind::kGauge).gauge;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  return *Register(name, help, Kind::kHistogram).histogram;
}

Gauge& MetricsRegistry::GetUnexportedGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = Register(name, "", Kind::kGauge);
  entry.exported = false;
  return *entry.gauge;
}

void MetricsRegistry::RegisterCallback(const std::string& name,
                                       const std::string& help,
                                       CallbackKind kind,
                                       std::function<double()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = Register(name, help, Kind::kCallback);
  entry.callback_kind = kind;
  entry.callback = std::move(fn);
}

std::string MetricsRegistry::Render() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, entry] : entries_) {
    if (!entry.exported) continue;
    out += "# HELP " + name + " " + entry.help + "\n";
    switch (entry.kind) {
      case Kind::kCounter:
        out += "# TYPE " + name + " counter\n";
        out += name + " " +
               StrFormat("%llu", static_cast<unsigned long long>(
                                     entry.counter->Value())) +
               "\n";
        break;
      case Kind::kGauge:
        out += "# TYPE " + name + " gauge\n";
        out += name + " " + RenderValue(entry.gauge->Value()) + "\n";
        break;
      case Kind::kCallback:
        out += "# TYPE " + name + " " +
               (entry.callback_kind == CallbackKind::kCounter ? "counter"
                                                              : "gauge") +
               "\n";
        out += name + " " + RenderValue(entry.callback()) + "\n";
        break;
      case Kind::kHistogram: {
        out += "# TYPE " + name + " histogram\n";
        const Histogram::Snapshot snap = entry.histogram->Fold();
        uint64_t cumulative = 0;
        for (size_t b = 0; b < Histogram::kBuckets; ++b) {
          cumulative += snap.buckets[b];
          const double bound = Histogram::BucketBound(b);
          const std::string le =
              std::isinf(bound) ? "+Inf" : RenderValue(bound);
          out += name + "_bucket{le=\"" + le + "\"} " +
                 StrFormat("%llu",
                           static_cast<unsigned long long>(cumulative)) +
                 "\n";
        }
        out += name + "_sum " + RenderValue(snap.sum) + "\n";
        out += name + "_count " +
               StrFormat("%llu",
                         static_cast<unsigned long long>(snap.count)) +
               "\n";
        break;
      }
    }
  }
  return out;
}

}  // namespace tcf
