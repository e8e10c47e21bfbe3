#include "serve/file_watcher.h"

#include <sys/stat.h>

#include <chrono>
#include <utility>

#include "core/tcfi_format.h"
#include "util/logging.h"
#include "util/timer.h"

namespace tcf {

FileWatcher::FileWatcher(QueryBackend& backend, FileWatcherOptions options)
    : backend_(backend),
      counters_(backend.metrics()),
      options_(std::move(options)) {}

FileWatcher::~FileWatcher() { Stop(); }

FileWatcher::Fingerprint FileWatcher::Stat(const std::string& path) {
  struct stat st;
  Fingerprint fp;
  if (::stat(path.c_str(), &st) != 0) return fp;  // absent: {-1, -1}
#ifdef __APPLE__
  fp.mtime_ns = static_cast<int64_t>(st.st_mtimespec.tv_sec) * 1000000000 +
                st.st_mtimespec.tv_nsec;
#else
  fp.mtime_ns = static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                st.st_mtim.tv_nsec;
#endif
  fp.size = static_cast<int64_t>(st.st_size);
  fp.inode = static_cast<uint64_t>(st.st_ino);
  return fp;
}

Status FileWatcher::Start() {
  if (started_) return Status::InvalidArgument("watcher already started");
  if (options_.path.empty()) {
    return Status::InvalidArgument("watcher needs a path");
  }
  // The version on disk right now is (presumably) the one already
  // serving; only changes from here on trigger reloads.
  last_seen_ = Stat(options_.path);
  started_ = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = false;
  }
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void FileWatcher::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || !started_) {
      if (!thread_.joinable()) return;
    }
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void FileWatcher::Loop() {
  const auto poll = std::chrono::duration<double, std::milli>(
      options_.poll_ms <= 0 ? 1.0 : options_.poll_ms);
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    if (cv_.wait_for(lock, poll, [this] { return stopping_; })) break;
    lock.unlock();

    const Fingerprint now = Stat(options_.path);
    if (!(now == last_seen_) && now.mtime_ns >= 0) {
      // A changed file is probed first: the header carries its own
      // checksum and the file size it expects, so a writer mid-copy is
      // detected with a 232-byte read instead of a failed full load.
      // Skips leave last_seen_ alone — the finished write's mtime bump
      // (or the next tick) retries.
      const Status probe = ProbeTcfiFile(options_.path);
      if (!probe.ok()) {
        skipped_.fetch_add(1, std::memory_order_acq_rel);
        TCF_LOG(Warn) << "watch " << options_.path
                      << ": tcfi header probe failed (write in "
                      << "progress?): " << probe.ToString();
        lock.lock();
        continue;
      }
      WallTimer timer;
      auto reloaded = backend_.ReloadFromFile(options_.path);
      if (reloaded.ok()) {
        const double ms = timer.Millis();
        counters_.reloads.Increment();
        counters_.last_reload_ms.Set(ms);
        reloads_.fetch_add(1, std::memory_order_acq_rel);
        last_seen_ = now;
        TCF_LOG(Info) << "watch " << options_.path << ": " << *reloaded
                      << " nodes swapped in over live traffic in " << ms
                      << " ms";
      } else {
        // The header is whole but the body is not (a section checksum
        // or bounds check failed); leave last_seen_ so the next tick
        // (or the finished write's mtime bump) retries.
        failures_.fetch_add(1, std::memory_order_acq_rel);
        TCF_LOG(Warn) << "watch " << options_.path
                      << ": changed but not loadable yet: "
                      << reloaded.status().ToString();
      }
    } else if (now.mtime_ns < 0 && last_seen_.mtime_ns >= 0) {
      // Deleted: keep serving the last good snapshot, re-arm on return.
      last_seen_ = now;
      TCF_LOG(Warn) << "watch " << options_.path
                    << ": file disappeared; serving the last snapshot";
    }

    lock.lock();
  }
}

}  // namespace tcf
