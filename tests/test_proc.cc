// The benches' child-process plumbing (bench/proc.h): a ppc_server that
// Spawn started does not outlive the process that spawned it, even when
// that process aborts and no destructor reaps the child.

#include "proc.h"

#include <gtest/gtest.h>

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <thread>

namespace ppc {
namespace {

/// Makes this process the subreaper of its descendants while in scope:
/// an orphaned grandchild is reparented here, so the test can reap it
/// and read how it died.
struct SubreaperScope {
  SubreaperScope() { ok = ::prctl(PR_SET_CHILD_SUBREAPER, 1) == 0; }
  ~SubreaperScope() { ::prctl(PR_SET_CHILD_SUBREAPER, 0); }
  bool ok = false;
};

TEST(ProcTest, ASpawnedServerDiesWithItsAbortedSpawner) {
  SubreaperScope subreaper;
  ASSERT_TRUE(subreaper.ok);
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  const pid_t helper = ::fork();
  ASSERT_GE(helper, 0);
  if (helper == 0) {
    // The helper spawns a server the way a bench does, reports its pid,
    // and aborts: ChildProcess's destructor never runs.
    ::close(pipe_fds[0]);
    const rlimit no_core{0, 0};
    ::setrlimit(RLIMIT_CORE, &no_core);
    bench::ChildProcess server;
    bench::Spawn(bench::BinaryPath("PPC_SERVER_BIN", "/../src/ppc_server"),
                 {"--port=0", "--workers=1"}, &server);
    const pid_t server_pid = server.pid;
    if (::write(pipe_fds[1], &server_pid, sizeof(server_pid)) < 0) {
      ::_exit(1);
    }
    std::abort();
  }
  ::close(pipe_fds[1]);
  pid_t server_pid = -1;
  const ssize_t n = ::read(pipe_fds[0], &server_pid, sizeof(server_pid));
  ::close(pipe_fds[0]);
  int helper_status = 0;
  ASSERT_EQ(::waitpid(helper, &helper_status, 0), helper);
  EXPECT_TRUE(WIFSIGNALED(helper_status) &&
              WTERMSIG(helper_status) == SIGABRT);
  ASSERT_EQ(n, static_cast<ssize_t>(sizeof(server_pid)))
      << "the helper never reported a started server";

  // The helper's exit reparented the server here; it must be gone within
  // 2 s, killed by the parent-death signal.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  int status = 0;
  pid_t reaped = 0;
  while ((reaped = ::waitpid(server_pid, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (reaped != server_pid) {
    // Leave nothing running when the check fails.
    ::kill(server_pid, SIGKILL);
    ::waitpid(server_pid, nullptr, 0);
  }
  ASSERT_EQ(reaped, server_pid) << "ppc_server outlived its aborted spawner";
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
}

}  // namespace
}  // namespace ppc
