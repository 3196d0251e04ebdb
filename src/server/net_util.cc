#include "server/net_util.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/errno_util.h"
#include "server/failpoints.h"

namespace ppc {
namespace net {

namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + ErrnoMessage(errno));
}

bool ErrnoMeansPeerGone(int err) {
  return err == EPIPE || err == ECONNRESET || err == ENOTCONN ||
         err == ESHUTDOWN;
}

Result<sockaddr_in> MakeAddress(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  return addr;
}

/// Waits for `events` on `fd` until the deadline. OK when ready,
/// DeadlineExceeded when time ran out, Internal on a poll failure.
Status PollFor(int fd, short events, const Deadline& deadline) {
  while (true) {
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, deadline.PollTimeoutMs());
    if (rc > 0) return Status::OK();
    if (rc == 0) return Status::DeadlineExceeded("socket wait timed out");
    if (errno == EINTR) {
      if (deadline.expired()) {
        return Status::DeadlineExceeded("socket wait timed out");
      }
      continue;
    }
    return Errno("poll");
  }
}

}  // namespace

int Deadline::PollTimeoutMs() const {
  if (infinite_) return -1;
  const auto remaining = when_ - Clock::now();
  if (remaining <= Clock::duration::zero()) return 0;
  const int64_t ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
          .count();
  // Round up so a sub-millisecond remainder waits instead of spinning.
  return static_cast<int>(std::min<int64_t>(ms + 1, 1 << 30));
}

Result<int> Listen(const std::string& bind_address, uint16_t port,
                   int backlog, uint16_t* bound_port) {
  PPC_ASSIGN_OR_RETURN(sockaddr_in addr, MakeAddress(bind_address, port));
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status st = Errno("bind " + bind_address + ":" +
                            std::to_string(port));
    ::close(fd);
    return st;
  }
  if (::listen(fd, backlog) != 0) {
    const Status st = Errno("listen");
    ::close(fd);
    return st;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      const Status st = Errno("getsockname");
      ::close(fd);
      return st;
    }
    *bound_port = ntohs(bound.sin_port);
  }
  const Status nb = SetNonBlocking(fd);
  if (!nb.ok()) {
    ::close(fd);
    return nb;
  }
  return fd;
}

bool ParsePort(const std::string& text, uint16_t* port) {
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  // A leading digit rules out signs and whitespace; strtol saturates, so
  // an overlong number fails the range check.
  if (text.empty() || text[0] < '0' || text[0] > '9' || *end != '\0' ||
      value > 65535) {
    return false;
  }
  *port = static_cast<uint16_t>(value);
  return true;
}

Result<int> Connect(const std::string& host, uint16_t port,
                    const Deadline& deadline) {
  PPC_ASSIGN_OR_RETURN(sockaddr_in addr, MakeAddress(host, port));
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  // The handshake runs non-blocking so the deadline is enforceable: a
  // blocking connect to a peer that drops SYNs would sit in the kernel's
  // own retry schedule (minutes) with no way to bail out.
  Status nonblocking = SetNonBlocking(fd);
  if (!nonblocking.ok()) {
    ::close(fd);
    return nonblocking;
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0 && errno != EINPROGRESS) {
    const Status st = Errno("connect " + host + ":" + std::to_string(port));
    ::close(fd);
    return st;
  }
  if (rc != 0) {
    const Status ready = PollFor(fd, POLLOUT, deadline);
    if (!ready.ok()) {
      ::close(fd);
      if (ready.code() == StatusCode::kDeadlineExceeded) {
        return Status::DeadlineExceeded("connect " + host + ":" +
                                        std::to_string(port) + " timed out");
      }
      return ready;
    }
    // Writability only means the handshake resolved; SO_ERROR says how.
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      if (err != 0) errno = err;
      const Status st = Errno("connect " + host + ":" + std::to_string(port));
      ::close(fd);
      return st;
    }
  }
  // Callers expect a blocking fd; per-operation deadlines are enforced by
  // the read/write wrappers.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) < 0) {
    const Status st = Errno("fcntl(clear O_NONBLOCK)");
    ::close(fd);
    return st;
  }
  // Request/response frames are small; Nagle only adds latency here.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(F_SETFL, O_NONBLOCK)");
  }
  return Status::OK();
}

Status WriteAll(int fd, const char* data, size_t size,
                const Deadline& deadline, size_t* written) {
  size_t unreported = 0;
  size_t& sent = written != nullptr ? *written : unreported;
  sent = 0;
  while (sent < size) {
    size_t chunk = size - sent;
    const failpoints::Action fault = failpoints::Hit(failpoints::Site::kSend);
    switch (fault.kind) {
      case failpoints::Kind::kShortIo:
        chunk = std::min<size_t>(chunk, std::max<uint32_t>(fault.arg, 1));
        break;
      case failpoints::Kind::kEagain: {
        // A real EAGAIN means the kernel buffer is full; the socket here
        // IS writable (poll would return instantly), so emulate the
        // unready buffer by burning a tick against the deadline.
        if (deadline.expired()) {
          return Status::DeadlineExceeded("socket wait timed out");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      case failpoints::Kind::kEintr:
        continue;
      case failpoints::Kind::kError:
        return Status::Unavailable("injected send failure");
      case failpoints::Kind::kTruncate: {
        // Deliver a prefix of the remaining bytes, then fail hard — the
        // peer sees a frame truncated mid-body.
        const size_t prefix = std::min<size_t>(chunk, fault.arg);
        if (prefix > 0) {
          [[maybe_unused]] const ssize_t n = ::send(
              fd, data + sent, prefix, MSG_NOSIGNAL | MSG_DONTWAIT);
        }
        return Status::Unavailable("injected frame truncation");
      }
      case failpoints::Kind::kStallMs:
        // A write that may not wait (an expired deadline) skips the stall.
        if (!deadline.expired()) failpoints::MaybeStall(fault);
        break;
      case failpoints::Kind::kNone:
        break;
    }
    // MSG_NOSIGNAL so a gone peer is a status, not SIGPIPE. MSG_DONTWAIT
    // so a *blocking* fd (the client's) cannot park inside the syscall
    // past the deadline; EAGAIN routes through PollFor below.
    const ssize_t n =
        ::send(fd, data + sent, chunk, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      PPC_RETURN_NOT_OK(PollFor(fd, POLLOUT, deadline));
      continue;
    }
    if (n < 0 && ErrnoMeansPeerGone(errno)) {
      return Status::Unavailable("send: " + ErrnoMessage(errno));
    }
    return Errno("send");
  }
  return Status::OK();
}

Status ReadFull(int fd, char* buffer, size_t size, const Deadline& deadline) {
  size_t received = 0;
  while (received < size) {
    PPC_ASSIGN_OR_RETURN(
        size_t n, RecvSome(fd, buffer + received, size - received, deadline));
    if (n == 0) {
      return Status::Unavailable("peer closed after " +
                                 std::to_string(received) + " of " +
                                 std::to_string(size) + " bytes");
    }
    received += n;
  }
  return Status::OK();
}

Result<size_t> RecvSome(int fd, char* buffer, size_t size,
                        const Deadline& deadline) {
  while (true) {
    size_t limit = size;
    const failpoints::Action fault = failpoints::Hit(failpoints::Site::kRecv);
    switch (fault.kind) {
      case failpoints::Kind::kShortIo:
        limit = std::min<size_t>(limit, std::max<uint32_t>(fault.arg, 1));
        break;
      case failpoints::Kind::kEagain: {
        // As in WriteAll: emulate the unready buffer with a slept tick —
        // the fd may actually be readable, so polling would not wait.
        if (deadline.expired()) {
          return Status::DeadlineExceeded("socket wait timed out");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      case failpoints::Kind::kEintr:
        continue;
      case failpoints::Kind::kError:
        return Status::Unavailable("injected recv failure");
      case failpoints::Kind::kStallMs:
        failpoints::MaybeStall(fault);
        break;
      default:
        break;
    }
    if (!deadline.infinite()) {
      // Wait for readability first so a blocking fd honors the deadline.
      PPC_RETURN_NOT_OK(PollFor(fd, POLLIN, deadline));
    }
    const ssize_t n = ::recv(fd, buffer, limit, 0);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Non-blocking fd (or a readiness race): wait, then retry.
      PPC_RETURN_NOT_OK(PollFor(fd, POLLIN, deadline));
      continue;
    }
    if (ErrnoMeansPeerGone(errno)) {
      return Status::Unavailable("recv: " + ErrnoMessage(errno));
    }
    return Errno("recv");
  }
}

RecvOutcome RecvNonBlocking(int fd, char* buffer, size_t size,
                            size_t* received) {
  while (true) {
    size_t limit = size;
    const failpoints::Action fault = failpoints::Hit(failpoints::Site::kRecv);
    switch (fault.kind) {
      case failpoints::Kind::kShortIo:
        limit = std::min<size_t>(limit, std::max<uint32_t>(fault.arg, 1));
        break;
      case failpoints::Kind::kEagain:
        // Safe with level-triggered epoll: the data is still there, the
        // next epoll_wait reports the fd readable again.
        return RecvOutcome::kWouldBlock;
      case failpoints::Kind::kEintr:
        continue;
      case failpoints::Kind::kError:
        return RecvOutcome::kError;
      case failpoints::Kind::kStallMs:
        failpoints::MaybeStall(fault);
        break;
      default:
        break;
    }
    const ssize_t n = ::recv(fd, buffer, limit, 0);
    if (n > 0) {
      *received = static_cast<size_t>(n);
      return RecvOutcome::kData;
    }
    if (n == 0) return RecvOutcome::kEof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return RecvOutcome::kWouldBlock;
    }
    return RecvOutcome::kError;
  }
}

}  // namespace net
}  // namespace ppc
