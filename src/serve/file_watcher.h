#ifndef TCF_SERVE_FILE_WATCHER_H_
#define TCF_SERVE_FILE_WATCHER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "serve/query_backend.h"
#include "serve/serve_stats.h"
#include "util/status.h"

namespace tcf {

/// Configuration of a FileWatcher.
struct FileWatcherOptions {
  /// TCFI index file to watch (core/tcfi_format.h). Need not exist at
  /// Start(): the watcher arms on its first appearance.
  std::string path;
  /// Poll cadence. mtime polling (not inotify) keeps the watcher
  /// portable and dependency-free; at serving timescales a sub-second
  /// poll is indistinguishable from an event.
  double poll_ms = 500;
};

/// \brief Hot-reload-on-write: polls an index file's mtime and rolls
/// each new version into a live backend (`tcf serve --watch=PATH`).
///
/// The operational complement of the RELOAD verb: instead of a client
/// pushing a reload, the server watches the artifact the index build
/// pipeline writes and swaps every new version in through the same
/// epoch-safe snapshot-swap path (full invalidation semantics, counted
/// in `reloads`/`last_reload_ms` like a wire RELOAD) — `ReloadFromFile`
/// installs the file as a zero-copy mapped snapshot. A half-written
/// file is harmless: every changed file is *probed* first (header +
/// checksum + size on disk, a 232-byte read — ProbeTcfiFile) and a
/// failing probe is counted in `skipped`, not `failures`, with no load
/// attempted; a file that passes the probe but fails to map (a bad
/// section checksum, say) counts a failure. Either way the watcher
/// leaves `last_seen_` alone so the next tick (or the finished write's
/// mtime bump) retries. Writers
/// should still prefer write-to-temp + rename (SaveTcTreeBinary does),
/// which makes the swap atomic at the filesystem level.
class FileWatcher {
 public:
  /// `backend` must outlive the watcher.
  FileWatcher(QueryBackend& backend, FileWatcherOptions options);
  ~FileWatcher();

  FileWatcher(const FileWatcher&) = delete;
  FileWatcher& operator=(const FileWatcher&) = delete;

  /// Records the file's current fingerprint (so only *subsequent*
  /// writes trigger reloads) and starts the poll thread.
  /// InvalidArgument if already started or the path is empty.
  Status Start();

  /// Stops the poll thread. Idempotent; called by the destructor.
  void Stop();

  /// Successful watch-triggered reloads so far.
  uint64_t reloads() const { return reloads_.load(std::memory_order_acquire); }
  /// Changed-but-unloadable observations (e.g. a write in progress).
  uint64_t failures() const {
    return failures_.load(std::memory_order_acquire);
  }
  /// Changed TCFI files whose header probe said "not done being
  /// written" (bad or truncated header/checksum) — skipped without
  /// attempting a load, retried on a later tick.
  uint64_t skipped() const { return skipped_.load(std::memory_order_acquire); }

 private:
  /// (mtime ns, size) — enough to see every completed write, including
  /// same-size rewrites on filesystems with nanosecond timestamps.
  /// The inode tells apart two same-size versions renamed into place
  /// within one coarse mtime tick.
  struct Fingerprint {
    int64_t mtime_ns = -1;  // -1: file absent
    int64_t size = -1;
    uint64_t inode = 0;
    bool operator==(const Fingerprint&) const = default;
  };

  static Fingerprint Stat(const std::string& path);
  void Loop();

  QueryBackend& backend_;
  ServeCounters counters_;  // tcf_reloads_total, tcf_last_reload_ms
  FileWatcherOptions options_;
  Fingerprint last_seen_;

  std::thread thread_;
  std::atomic<uint64_t> reloads_{0};
  std::atomic<uint64_t> failures_{0};
  std::atomic<uint64_t> skipped_{0};
  std::mutex mu_;
  std::condition_variable cv_;  // wakes the poll loop for prompt Stop()
  bool stopping_ = false;       // guarded by mu_
  bool started_ = false;
};

}  // namespace tcf

#endif  // TCF_SERVE_FILE_WATCHER_H_
