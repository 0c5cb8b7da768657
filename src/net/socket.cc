#include "net/socket.h"

#include <arpa/inet.h>
#include <csignal>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace grasp::net {

void OwnedFd::Reset() {
  if (fd_ >= 0) {
    // No EINTR loop: on Linux close() releases the fd even when it returns
    // EINTR, and retrying could close a descriptor another thread just
    // received from the kernel.
    ::close(fd_);
  }
  fd_ = -1;
}

std::ptrdiff_t ReadRetry(int fd, void* buf, std::size_t len) {
  for (;;) {
    const ssize_t n = ::read(fd, buf, len);
    if (n >= 0 || errno != EINTR) return n;
  }
}

std::ptrdiff_t WriteRetry(int fd, const void* buf, std::size_t len) {
  for (;;) {
    const ssize_t n = ::send(fd, buf, len, MSG_NOSIGNAL);
    if (n >= 0 || errno != EINTR) return n;
  }
}

int AcceptRetry(int listen_fd) {
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      // Replies go out as soon as they are written: without this, a reply
      // written while the previous one is unacknowledged waits for the
      // client's delayed ACK (~40 ms on Linux).
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    if (errno != EINTR) return fd;
  }
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IoError(std::string("fcntl O_NONBLOCK: ") +
                           std::strerror(errno));
  }
  return Status::Ok();
}

void IgnoreSigpipe() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = SIG_IGN;
  ::sigaction(SIGPIPE, &action, nullptr);
}

namespace {

Result<sockaddr_in> ResolveV4(const std::string& host, std::uint16_t port) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  // Numeric IPv4 only — a serving binary should not stall in a resolver;
  // anything else is configuration, not input.
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  return addr;
}

}  // namespace

Result<OwnedFd> ListenTcp(const std::string& host, std::uint16_t port,
                          int backlog, std::uint16_t* bound_port) {
  GRASP_ASSIGN_OR_RETURN(const sockaddr_in addr, ResolveV4(host, port));
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::IoError("bind " + host + ":" + std::to_string(port) + ": " +
                           std::strerror(errno));
  }
  if (::listen(fd.get(), backlog) != 0) {
    return Status::IoError(std::string("listen: ") + std::strerror(errno));
  }
  if (bound_port != nullptr) {
    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      return Status::IoError(std::string("getsockname: ") +
                             std::strerror(errno));
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

Result<OwnedFd> ConnectTcp(const std::string& host, std::uint16_t port) {
  GRASP_ASSIGN_OR_RETURN(const sockaddr_in addr, ResolveV4(host, port));
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  // EINTR during connect leaves the attempt in progress; re-calling then
  // reports EALREADY until it resolves and EISCONN once it has. Only after
  // an interrupted first call are those two success-in-disguise.
  bool interrupted = false;
  for (;;) {
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      break;
    }
    if (errno == EINTR || (interrupted && errno == EALREADY)) {
      interrupted = true;
      continue;
    }
    if (interrupted && errno == EISCONN) break;
    return Status::IoError("connect " + host + ":" + std::to_string(port) +
                           ": " + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace grasp::net
