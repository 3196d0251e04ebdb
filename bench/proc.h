#ifndef PPC_BENCH_PROC_H_
#define PPC_BENCH_PROC_H_

// Child-process plumbing for the benches that run the serving tier as
// real processes (bench_cluster_throughput, bench_cluster_failover):
// locate the ppc_server / ppc_router binaries, fork/exec them, and wait
// for their `LISTENING <port>` readiness line instead of sleeping. A
// child dies with the thread that spawned it, so an aborted bench leaves
// no shard or router running.

#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/errno_util.h"
#include "common/macros.h"

namespace ppc {
namespace bench {

/// Directory holding this bench binary, via /proc/self/exe.
inline std::string SelfDirectory() {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  PPC_CHECK_MSG(n > 0, "readlink(/proc/self/exe) failed");
  buffer[n] = '\0';
  std::string path(buffer);
  const size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

/// `$env_override` when set, else `relative` to this binary's directory.
inline std::string BinaryPath(const char* env_override, const char* relative) {
  const char* overridden = std::getenv(env_override);
  if (overridden != nullptr && overridden[0] != '\0') return overridden;
  return SelfDirectory() + relative;
}

/// One spawned shard/router. Its stdout is piped back so the parent can
/// parse the `LISTENING <port>` readiness line.
struct ChildProcess {
  pid_t pid = -1;
  int stdout_fd = -1;
  uint16_t port = 0;

  ~ChildProcess() { Terminate(); }

  void Terminate() { Reap(SIGTERM); }
  /// The failure injection: no shutdown handler runs, no drain, the
  /// kernel just closes every socket — exactly a crashed shard.
  void Kill() { Reap(SIGKILL); }

  void Reap(int signal) {
    if (stdout_fd >= 0) {
      ::close(stdout_fd);
      stdout_fd = -1;
    }
    if (pid > 0) {
      ::kill(pid, signal);
      int status = 0;
      ::waitpid(pid, &status, 0);
      pid = -1;
    }
  }
};

/// fork/exec `binary` with `args`, then block until it prints
/// `LISTENING <port>`. Aborts the bench when the child dies first (its
/// stderr goes to ours, so the cause is on the terminal).
///
/// The child gets SIGKILL when the calling thread exits (PR_SET_PDEATHSIG
/// follows the forking thread, not the process), so spawn from a thread
/// that outlives the child; every caller spawns from main.
inline void Spawn(const std::string& binary,
                  const std::vector<std::string>& args, ChildProcess* child) {
  int pipe_fds[2];
  PPC_CHECK_MSG(::pipe(pipe_fds) == 0, "pipe failed");
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  PPC_CHECK_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    // A parent that died before prctl ran sends no signal: the child has
    // already been reparented, so it checks and leaves on its own.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    std::fprintf(stderr, "exec %s: %s\n", binary.c_str(),
                 ppc::ErrnoMessage(errno).c_str());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  child->pid = pid;
  child->stdout_fd = pipe_fds[0];

  std::string line;
  char byte;
  while (true) {
    const ssize_t n = ::read(pipe_fds[0], &byte, 1);
    if (n <= 0) {
      std::fprintf(stderr, "child %s exited before LISTENING\n",
                   binary.c_str());
      PPC_CHECK_MSG(false, "child process failed to start");
    }
    if (byte == '\n') {
      unsigned parsed = 0;
      if (std::sscanf(line.c_str(), "LISTENING %u", &parsed) == 1) {
        child->port = static_cast<uint16_t>(parsed);
        return;
      }
      line.clear();
      continue;
    }
    line.push_back(byte);
  }
}

}  // namespace bench
}  // namespace ppc

#endif  // PPC_BENCH_PROC_H_
