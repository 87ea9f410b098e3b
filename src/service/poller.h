// Readiness-notification layer for the event-loop server core and the
// load-generator bench: an epoll(7) instance on Linux with a poll(2)
// fallback everywhere else, behind one interface so the connection state
// machines never see which kernel facility is underneath.
//
// Level-triggered semantics on both backends (an fd stays reported until
// its condition is consumed), because level-triggering keeps the state
// machines simple: a short read is never a lost wakeup, it is just the
// next wait()'s problem.  The backend is runtime-selectable so the CI
// suite can exercise the poll fallback on Linux too
// (EntropyServerConfig::force_poll_backend).
//
// WakePipe is the loop's cross-thread doorbell: a non-blocking
// self-pipe whose read end lives in the poller set, so stop requests and
// connection handoffs from other threads interrupt wait() without
// signals.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace dhtrng::service {

class Poller {
 public:
  enum class Backend {
    Auto,   ///< epoll where available, else poll
    Epoll,  ///< throws std::runtime_error off Linux
    Poll,   ///< portable poll(2) backend
  };

  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    /// EPOLLHUP/EPOLLERR/POLLNVAL: the fd needs attention even if neither
    /// direction is ready; callers treat it as readable (the next read
    /// observes EOF or the error).
    bool hangup = false;
  };

  explicit Poller(Backend backend = Backend::Auto);
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  bool using_epoll() const { return epoll_fd_ >= 0; }

  /// Register `fd` for readiness notification.  An fd is registered at
  /// most once; interest is edited with mod().
  void add(int fd, bool want_read, bool want_write);
  void mod(int fd, bool want_read, bool want_write);
  void del(int fd);

  /// Wait up to `timeout_ms` (-1 = forever) and append ready events to
  /// `out` (cleared first).  Returns the number of events, 0 on timeout.
  /// EINTR is absorbed and reported as a timeout with zero events.
  int wait(std::vector<Event>& out, int timeout_ms);

 private:
  int epoll_fd_ = -1;  ///< -1 = poll backend
  /// fd -> (want_read, want_write); the poll backend rebuilds its pollfd
  /// array from this on every wait (cheap at service fan-ins; the epoll
  /// backend keeps it so mod() and del() skip unregistered fds).
  std::unordered_map<int, std::pair<bool, bool>> interest_;
};

/// Self-pipe doorbell: notify() from any thread makes the read end
/// readable; drain() swallows pending notifications.  Both ends are
/// non-blocking and close-on-exec.
class WakePipe {
 public:
  WakePipe();
  ~WakePipe();

  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  int read_fd() const { return fds_[0]; }
  void notify();
  void drain();

 private:
  int fds_[2] = {-1, -1};
};

}  // namespace dhtrng::service
