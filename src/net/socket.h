#ifndef GRASP_NET_SOCKET_H_
#define GRASP_NET_SOCKET_H_

#include <cstdint>
#include <string>
#include <utility>

#include "common/status.h"

namespace grasp::net {

/// RAII file descriptor. Close errors are swallowed (close is retried on
/// EINTR per POSIX semantics on Linux: the fd is released either way).
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { Reset(); }
  OwnedFd(OwnedFd&& other) noexcept : fd_(other.release()) {}
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.release();
    }
    return *this;
  }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void Reset();

 private:
  int fd_ = -1;
};

/// EINTR-retrying syscall wrappers. Every raw read/write/accept/connect in
/// the repo goes through these (or carries its own loop): a signal landing
/// mid-syscall — SIGTERM starting a drain is the expected case — must never
/// surface as a spurious IO error.
std::ptrdiff_t ReadRetry(int fd, void* buf, std::size_t len);
/// Writes with MSG_NOSIGNAL where applicable: a dead peer yields EPIPE, not
/// a process-killing SIGPIPE (belt to IgnoreSigpipe's suspenders).
std::ptrdiff_t WriteRetry(int fd, const void* buf, std::size_t len);
/// accept4 (nonblocking, close-on-exec) retried on EINTR; the accepted
/// socket has TCP_NODELAY set.
int AcceptRetry(int listen_fd);

Status SetNonBlocking(int fd);

/// Process-wide SIGPIPE ignore: any server talking to sockets must call
/// this before its first write — a client that vanishes between poll and
/// write would otherwise kill the whole process.
void IgnoreSigpipe();

/// Binds + listens a nonblocking TCP socket on host:port (port 0 picks an
/// ephemeral port; *bound_port reports the actual one). SO_REUSEADDR set so
/// fast restarts don't trip on TIME_WAIT.
Result<OwnedFd> ListenTcp(const std::string& host, std::uint16_t port,
                          int backlog, std::uint16_t* bound_port);

/// Blocking client connect (tools and tests; the server never connects).
Result<OwnedFd> ConnectTcp(const std::string& host, std::uint16_t port);

}  // namespace grasp::net

#endif  // GRASP_NET_SOCKET_H_
