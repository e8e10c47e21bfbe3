// Open-loop load generation over the TCF1 wire protocol.
//
// Requests arrive on a precomputed Poisson schedule (independent users),
// and each one is timed from its due time, not its send time, so a stall
// also charges the requests queued behind it. The generator owns at most
// one blocking `Client` connection per thread; a free thread takes the
// next due request, so requests wait for a connection only while every
// connection is busy. Replies are framed with `Client::RoundTrip` and
// never decoded, which keeps the generator's own cost per request small
// next to the server's (decoding a ~48 KB BK answer costs ~430 µs).
#ifndef TCF_BENCH_E2E_LOADGEN_H_
#define TCF_BENCH_E2E_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/tc_tree_update.h"
#include "serve/client.h"
#include "spans.h"
#include "tx/item_dictionary.h"

namespace tcf::e2e {

/// A failed request counts as missing every latency limit.
inline constexpr double kFailedLatencyUs = 1e12;

/// A reply framed this long after its send counts as failed.
inline constexpr double kSlowReplyUs = 1e6;

struct PhaseOptions {
  double seconds = 0;    // arrivals span [0, seconds)
  double grace_s = 1.0;  // requests not sent by seconds + grace are dropped
  double window_s = 1.0;  // latency windows, by due time (WindowedQuantile)
  /// Trace mode: every request records generator spans into this log.
  SpanLog* spans = nullptr;
  uint64_t first_request = 0;  // request id of lines[0], for spans
  /// Trace mode: thread 0 samples tcf_server_pending_units every 100 ms.
  bool sample_pending = false;
};

struct PhaseResult {
  size_t offered = 0;    // requests scheduled
  size_t sent = 0;       // requests written to a connection
  size_t completed = 0;  // OK replies
  size_t failed = 0;     // ERR, transport error, or a reply later than 1 s
  /// Due → reply framed, by window of due time; failures at +1e12.
  std::vector<std::vector<double>> window_latency_us;
  std::vector<double> late_us;          // due → send, every sent request
  std::vector<double> pending_samples;  // trace mode
  std::string first_error;
};

/// Runs one open-loop phase: lines[i] is due at due_ns[i] after the
/// phase starts, on whichever of `conns` (one thread each) is free.
PhaseResult RunQueryPhase(const std::vector<Client*>& conns,
                          const std::vector<std::string>& lines,
                          const std::vector<int64_t>& due_ns,
                          const PhaseOptions& options);

/// The UPDATE stream of a churn workload, on its own thread and
/// connection: batch i is sent at due_ns[i] after Start().
class UpdateStream {
 public:
  struct Result {
    std::vector<NetworkUpdate> acknowledged;  // in server apply order
    std::vector<double> rtt_ms;               // send → UPDATED framed
    std::vector<double> server_ms;            // the reply's update_ms
    uint64_t copied = 0;  // summed over the UPDATED replies
    uint64_t recomputed = 0;
    size_t sent = 0;
    size_t failed = 0;
    std::string first_error;
  };

  UpdateStream(Client* conn, const ItemDictionary& dictionary,
               std::vector<NetworkUpdate> batches,
               std::vector<int64_t> due_ns);
  ~UpdateStream();
  UpdateStream(const UpdateStream&) = delete;
  UpdateStream& operator=(const UpdateStream&) = delete;

  void Start();
  /// Waits until every scheduled batch has been answered, so the batch
  /// count, and with it the update work, depends on the seed alone.
  Result Finish();
  /// Stops once the batch in flight (if any) is answered: for a schedule
  /// that outlasts the phases it runs beside, whose length is not known
  /// in advance.
  Result Stop();

 private:
  void Run(int64_t start_ns);

  Client* conn_;
  const ItemDictionary& dictionary_;
  std::vector<NetworkUpdate> batches_;
  std::vector<int64_t> due_ns_;
  std::atomic<bool> stop_{false};
  Result result_;
  std::thread thread_;  // declared last: started after the rest exists
};

/// Nearest-rank quantile `q` of `v` (0 when empty).
double Quantile(std::vector<double> v, double q);

/// Every latency sample of a phase, windows pooled.
std::vector<double> Latencies(const PhaseResult& r);

/// The median, over a phase's windows, of each window's latency
/// quantile `q`. A host with noisy neighbours stalls for whole seconds;
/// one stalled window moves this much less than the pooled quantile.
double WindowedQuantile(const PhaseResult& r, double q);

/// `Client::Metrics` parsed into name → value for unlabelled series
/// (counters, gauges, histogram _sum/_count).
StatusOr<std::map<std::string, double>> ScrapeMetrics(Client& client);

/// Sleeps until the monotonic clock reads `ns`.
void SleepUntilNs(int64_t ns);

/// Lowers this thread's timer slack to 1 ns so due-time sleeps wake
/// within a few microseconds instead of the default 50 µs.
void TightenTimerSlack();

}  // namespace tcf::e2e

#endif  // TCF_BENCH_E2E_LOADGEN_H_
