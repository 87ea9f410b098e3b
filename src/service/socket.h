// Thin RAII layer over the POSIX sockets the entropy service uses: a
// connected stream socket with exact-read/exact-write helpers, a listener
// whose fd the event loop polls, and a classified non-blocking accept.
//
// Both TCP (loopback by default) and Unix-domain stream sockets are
// supported; everything above this layer is transport-agnostic.  Writes
// use MSG_NOSIGNAL so a peer that disappears mid-response surfaces as an
// error return, never a SIGPIPE.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace dhtrng::service {

class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Read exactly `n` bytes; false on EOF or error (including a peer that
  /// resets mid-read — the caller treats both as "connection over").
  bool read_exact(std::uint8_t* buf, std::size_t n);
  /// Write all `n` bytes; false on error.
  bool write_all(const std::uint8_t* buf, std::size_t n);

  void close();

  /// O_NONBLOCK on/off (the event-loop server runs every connection
  /// non-blocking; the blocking client never calls this).
  void set_nonblocking(bool enable);
  /// TCP_NODELAY (no-op on non-TCP fds): small request/response and push
  /// frames must not sit in Nagle's buffer.
  void set_nodelay();

 private:
  int fd_ = -1;
};

class Listener {
 public:
  /// Bind + listen (SO_REUSEADDR, backlog SOMAXCONN) on 127.0.0.1:`port`
  /// (0 = ephemeral; see port()).  Throws std::runtime_error on failure.
  /// EntropyServer opens one, on shard 0, whatever its shard count.
  static Listener tcp_loopback(std::uint16_t port);
  /// Bind + listen (backlog SOMAXCONN) on a Unix-domain stream socket at
  /// `path` (unlinked first, and unlinked again on destruction).
  static Listener unix_domain(const std::string& path);

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  Listener(Listener&& other) noexcept;
  ~Listener();

  /// Actual bound TCP port (0 for Unix-domain listeners).
  std::uint16_t port() const { return port_; }

  void close();

  int fd() const { return fd_; }
  /// O_NONBLOCK for event-loop accept draining.
  void set_nonblocking();

 private:
  Listener(int fd, std::uint16_t port, std::string path)
      : fd_(fd), port_(port), path_(std::move(path)) {}

  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::string path_;  ///< non-empty for Unix-domain (unlink target)
};

/// Connect to a TCP server; invalid Socket on failure.
Socket connect_tcp(const std::string& host, std::uint16_t port);
/// Connect to a Unix-domain server; invalid Socket on failure.
Socket connect_unix(const std::string& path);

/// What an accept(2) failure means for the accept loop.  PR 5 treated
/// every errno identically (drop the iteration); the event-loop core
/// separates the transient cases from the fatal ones:
enum class AcceptOutcome {
  WouldBlock,     ///< EAGAIN/EWOULDBLOCK — backlog drained, wait for epoll
  Retry,          ///< EINTR/ECONNABORTED/EPROTO — retry immediately
  SoftExhausted,  ///< EMFILE/ENFILE/ENOBUFS/ENOMEM — fd/memory pressure;
                  ///< back off and let the level-triggered poller re-arm
  Fatal,          ///< anything else — the listener itself is broken
};

/// Pure classification of `errno` from a failed accept(2) (unit-tested
/// directly; the regression test injects these through
/// EntropyServerConfig::accept_fn).
AcceptOutcome classify_accept_errno(int err);

/// Non-blocking accept: returns the new fd (already O_NONBLOCK +
/// close-on-exec) or -1 with errno set.
int accept_nonblocking(int listener_fd);

}  // namespace dhtrng::service
