// Child processes of the end-to-end benchmark: the shipped `tcf index`
// and `tcf serve` binaries, driven exactly as an operator would run them.
#ifndef TCF_BENCH_E2E_CHILD_H_
#define TCF_BENCH_E2E_CHILD_H_

#include <sys/resource.h>
#include <sys/types.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace tcf::e2e {

/// One running child. The destructor stops it (SIGTERM, then SIGKILL)
/// and reaps it, so no exit path of the benchmark leaves one behind; the
/// child also gets SIGKILL should the benchmark itself die first.
class ChildProcess {
 public:
  /// Starts `argv` with stdout and stderr redirected to `log_path`.
  static StatusOr<std::unique_ptr<ChildProcess>> Spawn(
      const std::vector<std::string>& argv, const std::string& log_path);

  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// Waits until the log holds a line containing `needle` and returns
  /// that line. Fails if the child exits first or `timeout_s` passes.
  StatusOr<std::string> WaitForLine(std::string_view needle,
                                    double timeout_s);

  /// Waits for the child to exit; OK only for exit code 0.
  Status Wait(double timeout_s);

  /// SIGTERM, then SIGKILL after `grace_s`; reaps the child.
  void Stop(double grace_s = 5.0);

  /// Peak resident set in MiB (ru_maxrss); 0 until the child is reaped.
  double PeakRssMb() const;

  /// The child's log (stdout and stderr).
  std::string Log() const;

 private:
  ChildProcess(pid_t pid, std::string log_path)
      : pid_(pid), log_path_(std::move(log_path)) {}

  /// Non-blocking reap; true once the child has exited.
  bool Reaped();

  pid_t pid_;
  std::string log_path_;
  bool exited_ = false;
  int exit_status_ = 0;
  rusage usage_{};
};

}  // namespace tcf::e2e

#endif  // TCF_BENCH_E2E_CHILD_H_
