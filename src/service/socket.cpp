#include "service/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <stdexcept>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#include <utility>

namespace dhtrng::service {

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

bool Socket::read_exact(std::uint8_t* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd_, buf + got, n - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;  // EOF (r == 0) or hard error
  }
  return true;
}

bool Socket::write_all(const std::uint8_t* buf, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t r = ::send(fd_, buf + sent, n - sent, MSG_NOSIGNAL);
    if (r > 0) {
      sent += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::set_nonblocking(bool enable) {
  if (fd_ < 0) return;
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) return;
  ::fcntl(fd_, F_SETFL,
          enable ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK));
}

void Socket::set_nodelay() {
  if (fd_ < 0) return;
  const int one = 1;
  // Fails harmlessly on Unix-domain sockets.
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

Listener Listener::tcp_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw_errno("bind(127.0.0.1)");
  }
  if (::listen(fd, SOMAXCONN) < 0) {
    ::close(fd);
    throw_errno("listen");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    ::close(fd);
    throw_errno("getsockname");
  }
  return Listener(fd, ntohs(bound.sin_port), "");
}

Listener Listener::unix_domain(const std::string& path) {
  sockaddr_un addr{};
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("unix socket path empty or too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_UNIX)");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw_errno("bind(" + path + ")");
  }
  if (::listen(fd, SOMAXCONN) < 0) {
    ::close(fd);
    throw_errno("listen(" + path + ")");
  }
  return Listener(fd, 0, path);
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), port_(other.port_), path_(std::move(other.path_)) {
  other.fd_ = -1;
  other.path_.clear();
}

Listener::~Listener() { close(); }

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!path_.empty()) {
    ::unlink(path_.c_str());
    path_.clear();
  }
}

void Listener::set_nonblocking() {
  if (fd_ < 0) return;
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
}

Socket connect_tcp(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Socket();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Socket();
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return Socket();
  }
  return Socket(fd);
}

AcceptOutcome classify_accept_errno(int err) {
  switch (err) {
    case EAGAIN:
#if EWOULDBLOCK != EAGAIN
    case EWOULDBLOCK:
#endif
      return AcceptOutcome::WouldBlock;
    case EINTR:        // signal mid-accept: nothing wrong with the socket
    case ECONNABORTED: // the pending peer hung up first: take the next one
#ifdef EPROTO
    case EPROTO:       // per-connection protocol hiccup, not our listener
#endif
      return AcceptOutcome::Retry;
    case EMFILE:   // process fd table full
    case ENFILE:   // system fd table full
    case ENOBUFS:  // transient kernel memory pressure
    case ENOMEM:
      return AcceptOutcome::SoftExhausted;
    default:
      // EBADF, EINVAL, ENOTSOCK, EOPNOTSUPP, ...: the listener itself is
      // broken and retrying would spin forever.
      return AcceptOutcome::Fatal;
  }
}

int accept_nonblocking(int listener_fd) {
#if defined(__linux__)
  return ::accept4(listener_fd, nullptr, nullptr,
                   SOCK_NONBLOCK | SOCK_CLOEXEC);
#else
  const int fd = ::accept(listener_fd, nullptr, nullptr);
  if (fd >= 0) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  }
  return fd;
#endif
}

Socket connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) return Socket();
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Socket();
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return Socket();
  }
  return Socket(fd);
}

}  // namespace dhtrng::service
