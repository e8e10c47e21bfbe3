#include "child.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/string_util.h"

namespace tcf::e2e {
namespace {

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

StatusOr<std::unique_ptr<ChildProcess>> ChildProcess::Spawn(
    const std::vector<std::string>& argv, const std::string& log_path) {
  // Everything the child touches between fork and exec is prepared
  // here: after fork only async-signal-safe calls are allowed.
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  const int log_fd = ::open(log_path.c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    return Status::IOError(
        StrFormat("open %s: %s", log_path.c_str(), std::strerror(errno)));
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return Status::IOError(StrFormat("fork: %s", std::strerror(errno)));
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);  // parent died before prctl
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(log_fd);
  return std::unique_ptr<ChildProcess>(new ChildProcess(pid, log_path));
}

ChildProcess::~ChildProcess() { Stop(); }

bool ChildProcess::Reaped() {
  if (exited_) return true;
  const pid_t r = ::wait4(pid_, &exit_status_, WNOHANG, &usage_);
  if (r == pid_ || (r < 0 && errno == ECHILD)) exited_ = true;
  return exited_;
}

std::string ChildProcess::Log() const {
  std::ifstream in(log_path_);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

StatusOr<std::string> ChildProcess::WaitForLine(std::string_view needle,
                                                double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (true) {
    const std::string log = Log();
    const size_t at = log.find(needle);
    if (at != std::string::npos) {
      const size_t begin = log.rfind('\n', at);
      const size_t end = log.find('\n', at);
      if (end != std::string::npos) {  // the whole line has landed
        const size_t from = begin == std::string::npos ? 0 : begin + 1;
        return log.substr(from, end - from);
      }
    }
    if (Reaped()) {
      return Status::Internal(
          StrFormat("child exited before printing '%.*s':\n%s",
                    static_cast<int>(needle.size()), needle.data(),
                    log.c_str()));
    }
    if (std::chrono::steady_clock::now() > deadline) {
      return Status::DeadlineExceeded(
          StrFormat("no '%.*s' after %.0f s:\n%s",
                    static_cast<int>(needle.size()), needle.data(),
                    timeout_s, log.c_str()));
    }
    SleepMs(1);
  }
}

Status ChildProcess::Wait(double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (!Reaped()) {
    if (std::chrono::steady_clock::now() > deadline) {
      Stop(0);
      return Status::DeadlineExceeded(
          StrFormat("child still running after %.0f s", timeout_s));
    }
    SleepMs(1);
  }
  if (!WIFEXITED(exit_status_) || WEXITSTATUS(exit_status_) != 0) {
    return Status::Internal(
        StrFormat("child failed (status %d):\n%s", exit_status_,
                  Log().c_str()));
  }
  return Status::OK();
}

void ChildProcess::Stop(double grace_s) {
  if (Reaped()) return;
  ::kill(pid_, SIGTERM);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(grace_s);
  while (!Reaped()) {
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, &exit_status_, 0, &usage_);
      exited_ = true;
      return;
    }
    SleepMs(1);
  }
}

double ChildProcess::PeakRssMb() const {
  return exited_ ? static_cast<double>(usage_.ru_maxrss) / 1024.0 : 0.0;
}

}  // namespace tcf::e2e
