#include "loadgen.h"

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <mutex>

#include "serve/line_protocol.h"
#include "util/string_util.h"

namespace tcf::e2e {

void SleepUntilNs(int64_t ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(ns / 1000000000);
  ts.tv_nsec = static_cast<long>(ns % 1000000000);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

void TightenTimerSlack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

std::vector<double> Latencies(const PhaseResult& r) {
  std::vector<double> all;
  for (const std::vector<double>& w : r.window_latency_us) {
    all.insert(all.end(), w.begin(), w.end());
  }
  return all;
}

double WindowedQuantile(const PhaseResult& r, double q) {
  std::vector<double> per_window;
  for (const std::vector<double>& w : r.window_latency_us) {
    if (!w.empty()) per_window.push_back(Quantile(w, q));
  }
  return Quantile(std::move(per_window), 0.5);
}

StatusOr<std::map<std::string, double>> ScrapeMetrics(Client& client) {
  auto text = client.Metrics();
  if (!text.ok()) return text.status();
  std::map<std::string, double> values;
  for (const std::string& line : Split(*text, '\n')) {
    if (line.empty() || line[0] == '#' ||
        line.find('{') != std::string::npos) {
      continue;
    }
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    values[line.substr(0, space)] = std::strtod(line.c_str() + space + 1,
                                                nullptr);
  }
  return values;
}

PhaseResult RunQueryPhase(const std::vector<Client*>& conns,
                          const std::vector<std::string>& lines,
                          const std::vector<int64_t>& due_ns,
                          const PhaseOptions& options) {
  PhaseResult result;
  result.offered = due_ns.size();
  std::atomic<size_t> next{0};
  std::mutex mu;  // guards `result` while threads fold their samples in
  const int64_t start = NowNs() + 2000000;  // 2 ms for threads to park
  const int64_t stop_at =
      start + static_cast<int64_t>((options.seconds + options.grace_s) * 1e9);
  const auto window_ns = static_cast<int64_t>(options.window_s * 1e9);
  const size_t windows =
      static_cast<size_t>(std::ceil(options.seconds / options.window_s));
  result.window_latency_us.resize(windows);

  auto worker = [&](size_t t) {
    TightenTimerSlack();
    Client& client = *conns[t];
    SpanBuffer spans(static_cast<uint32_t>(t + 1));
    PhaseResult mine;
    mine.window_latency_us.resize(windows);
    Request request;
    request.kind = Request::Kind::kQuery;
    int64_t next_sample = start;
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= due_ns.size()) break;
      const int64_t due = start + due_ns[i];
      SleepUntilNs(due);
      if (options.sample_pending && t == 0 && NowNs() >= next_sample) {
        next_sample += 100000000;
        auto metrics = ScrapeMetrics(client);
        if (metrics.ok()) {
          mine.pending_samples.push_back(
              (*metrics)["tcf_server_pending_units"]);
        }
      }
      const int64_t sent = NowNs();
      if (sent > stop_at) break;
      ++mine.sent;
      mine.late_us.push_back((sent - due) / 1e3);
      request.query_line = lines[i];
      auto reply = client.RoundTrip(request);
      const int64_t done = NowNs();
      const double service_us = (done - sent) / 1e3;
      std::string error;
      if (!reply.ok()) {
        error = reply.status().ToString();
      } else if (!reply->header.ok || reply->header.kind != "TRUSSES") {
        error = "reply " + reply->header.kind + " " +
                reply->header.ToStatus().ToString();
      } else if (service_us > kSlowReplyUs) {
        error = StrFormat("reply took %.0f us", service_us);
      }
      std::vector<double>& window =
          mine.window_latency_us[std::min<size_t>(due_ns[i] / window_ns,
                                                  windows - 1)];
      if (!error.empty()) {
        ++mine.failed;
        window.push_back(kFailedLatencyUs);
        if (mine.first_error.empty()) {
          mine.first_error = "'" + lines[i] + "': " + error;
        }
        if (!reply.ok()) break;  // the connection is gone
        continue;
      }
      ++mine.completed;
      const double latency = (done - due) / 1e3;
      window.push_back(latency);
      if (options.spans != nullptr) {
        const uint64_t request_id = options.first_request + i;
        const uint64_t root = spans.NextId();
        spans.Record("client.RoundTrip", "loadgen", sent, done, request_id,
                     root);
        spans.Record("loadgen.request", "loadgen", due, done, request_id, 0,
                     root);
      }
    }
    if (options.spans != nullptr) options.spans->Merge(spans);
    std::lock_guard<std::mutex> lock(mu);
    result.sent += mine.sent;
    result.completed += mine.completed;
    result.failed += mine.failed;
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(result.late_us, mine.late_us);
    append(result.pending_samples, mine.pending_samples);
    for (size_t w = 0; w < windows; ++w) {
      append(result.window_latency_us[w], mine.window_latency_us[w]);
    }
    if (result.first_error.empty()) result.first_error = mine.first_error;
  };

  std::vector<std::thread> threads;
  for (size_t t = 0; t < conns.size(); ++t) threads.emplace_back(worker, t);
  for (std::thread& th : threads) th.join();
  return result;
}

UpdateStream::UpdateStream(Client* conn, const ItemDictionary& dictionary,
                           std::vector<NetworkUpdate> batches,
                           std::vector<int64_t> due_ns)
    : conn_(conn),
      dictionary_(dictionary),
      batches_(std::move(batches)),
      due_ns_(std::move(due_ns)) {}

UpdateStream::~UpdateStream() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void UpdateStream::Start() {
  const int64_t start = NowNs();
  thread_ = std::thread([this, start] { Run(start); });
}

UpdateStream::Result UpdateStream::Finish() {
  if (thread_.joinable()) thread_.join();
  return std::move(result_);
}

UpdateStream::Result UpdateStream::Stop() {
  stop_.store(true);
  return Finish();
}

void UpdateStream::Run(int64_t start_ns) {
  TightenTimerSlack();
  for (size_t i = 0; i < batches_.size(); ++i) {
    // Sleep in short slices so an abandoned run's destructor never waits
    // out a long gap.
    const int64_t due = start_ns + due_ns_[i];
    while (!stop_.load() && NowNs() + 10000000 < due) {
      SleepUntilNs(NowNs() + 10000000);
    }
    if (stop_.load()) return;
    SleepUntilNs(due);
    const int64_t sent = NowNs();
    ++result_.sent;
    auto summary = conn_->Update(EncodeUpdate(dictionary_, batches_[i]));
    const int64_t done = NowNs();
    if (!summary.ok()) {
      ++result_.failed;
      if (result_.first_error.empty()) {
        result_.first_error = "UPDATE: " + summary.status().ToString();
      }
      // A rejected batch leaves the index untouched; a transport error
      // leaves nothing to send on.
      if (!summary.status().IsIOError()) continue;
      return;
    }
    std::map<std::string, double> fields;
    for (const auto& [key, value] : *summary) {
      fields[key] = std::strtod(value.c_str(), nullptr);
    }
    result_.acknowledged.push_back(batches_[i]);
    result_.rtt_ms.push_back((done - sent) / 1e6);
    result_.server_ms.push_back(fields["update_ms"]);
    result_.copied += static_cast<uint64_t>(fields["copied"]);
    result_.recomputed += static_cast<uint64_t>(fields["recomputed"]);
  }
}

}  // namespace tcf::e2e
