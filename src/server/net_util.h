#ifndef PPC_SERVER_NET_UTIL_H_
#define PPC_SERVER_NET_UTIL_H_

#include <sys/uio.h>

#include <chrono>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace ppc {
namespace net {

/// Thin Status-returning wrappers over the POSIX socket calls the serving
/// layer uses. IPv4 only; hosts are numeric dotted quads (no DNS — the
/// server is an internal service fronted by its own discovery).
///
/// Every blocking operation takes a Deadline, and timeouts are reported
/// distinctly from peer failures (DESIGN.md §14):
///
///   * StatusCode::kDeadlineExceeded — the deadline elapsed; the socket is
///     in an indeterminate mid-operation state and should be closed, but
///     the *peer* may be healthy (a retry on a fresh connection can work).
///   * StatusCode::kUnavailable — the peer closed or reset the connection.

/// A monotonic-clock deadline for socket operations. Infinite() never
/// expires; After(ms) expires that many milliseconds from now. Cheap to
/// copy and compare; poll timeouts derive from the remaining time.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Never expires (poll timeout -1).
  static Deadline Infinite() { return Deadline(); }

  /// Expires `ms` milliseconds from now; ms <= 0 is already expired.
  static Deadline AfterMs(int64_t ms) {
    Deadline d;
    d.infinite_ = false;
    d.when_ = Clock::now() + std::chrono::milliseconds(ms);
    return d;
  }

  /// AfterMs when ms > 0, Infinite when ms == 0 — the convention used by
  /// the "0 disables the timeout" configuration knobs.
  static Deadline AfterMsOrInfinite(int64_t ms) {
    return ms > 0 ? AfterMs(ms) : Infinite();
  }

  bool infinite() const { return infinite_; }
  bool expired() const { return !infinite_ && Clock::now() >= when_; }

  /// Remaining time as a poll() timeout: -1 when infinite, else the
  /// milliseconds left rounded up (so a deadline 0.4 ms away still waits
  /// rather than spinning), floored at 0 once expired.
  int PollTimeoutMs() const;

 private:
  Deadline() = default;
  bool infinite_ = true;
  Clock::time_point when_{};
};

/// Parses a decimal TCP port in 0..65535 (0 picks an ephemeral port when
/// listening) that makes up all of `text`. False for anything else, so an
/// out-of-range or mistyped port is refused instead of truncated.
bool ParsePort(const std::string& text, uint16_t* port);

/// Creates a TCP listen socket bound to `bind_address:port` (port 0 picks
/// an ephemeral port). On success returns the fd and stores the actually
/// bound port in `*bound_port`. The socket has SO_REUSEADDR set and is
/// non-blocking.
Result<int> Listen(const std::string& bind_address, uint16_t port,
                   int backlog, uint16_t* bound_port);

/// Connects to `host:port`, bounded by `deadline`: the TCP handshake runs
/// on a non-blocking socket and is waited on with poll, so an unreachable
/// peer (SYNs dropped, no RST) cannot hold the caller past its deadline —
/// DeadlineExceeded is returned instead, and the caller may retry on a
/// fresh connection. The returned fd is blocking (per-operation deadlines
/// are enforced by the read/write wrappers above).
Result<int> Connect(const std::string& host, uint16_t port,
                    const Deadline& deadline = Deadline::Infinite());

Status SetNonBlocking(int fd);

/// Writes all of `data`, retrying on EINTR and waiting (up to the
/// deadline) for writability on EAGAIN; works for blocking and
/// non-blocking fds, SIGPIPE suppressed. DeadlineExceeded when the
/// deadline expires mid-write (the stream is then mid-frame and must be
/// closed), Unavailable when the peer is gone.
Status WriteAll(int fd, const char* data, size_t size,
                const Deadline& deadline);

/// Upper bound on iovecs per WritevAll call.
inline constexpr int kMaxWriteIovecs = 8;

/// Scatter/gather WriteAll, and the loop WriteAll runs on (one iovec):
/// writes every byte of `iov[0..iovcnt)` in order via sendmsg (writev
/// cannot suppress SIGPIPE), with the same deadline, EINTR/EAGAIN, and
/// failpoint semantics as WriteAll. The server's flushes come through
/// here, one contiguous outbox per write. A partial write resumes exactly
/// where it stopped, mid-iovec, never re-sending bytes; the iovec array
/// itself is not modified (the resume state lives in a local copy).
/// iovcnt must be in (0, kMaxWriteIovecs].
Status WritevAll(int fd, const struct iovec* iov, int iovcnt,
                 const Deadline& deadline);

/// Compatibility shim over WriteAll: true iff every byte was written
/// before the (default infinite) deadline.
bool SendAll(int fd, const char* data, size_t size,
             const Deadline& deadline = Deadline::Infinite());

/// Reads exactly `size` bytes. DeadlineExceeded when the deadline expires
/// first, Unavailable when the peer closes before `size` bytes arrived.
Status ReadFull(int fd, char* buffer, size_t size, const Deadline& deadline);

/// Reads up to `size` bytes (blocking fds block until at least one byte,
/// EOF, error, or the deadline). Returns the byte count — 0 means EOF —
/// DeadlineExceeded on timeout, or an error status on failure.
Result<size_t> RecvSome(int fd, char* buffer, size_t size,
                        const Deadline& deadline = Deadline::Infinite());

/// One non-blocking read attempt, for the epoll loop's level-triggered
/// drain: kData stores the byte count in `*received`, kWouldBlock means
/// the socket is drained for now, kEof a clean peer close, kError a hard
/// failure.
enum class RecvOutcome { kData, kWouldBlock, kEof, kError };
RecvOutcome RecvNonBlocking(int fd, char* buffer, size_t size,
                            size_t* received);

}  // namespace net
}  // namespace ppc

#endif  // PPC_SERVER_NET_UTIL_H_
