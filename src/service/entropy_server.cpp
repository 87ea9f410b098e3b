#include "service/entropy_server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string_view>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>
#include <utility>

#include "core/postprocess.h"

namespace dhtrng::service {

namespace {

/// Frames batched into one sendmsg call.
constexpr std::size_t kWritevBatch = 16;
/// Retry cadence (real time) for deferred subscription pushes — short
/// enough that a drained bucket is noticed promptly, long enough not to
/// spin while the bucket refills.
constexpr int kDeferredRetryMs = 2;
/// Idle loop heartbeat (stop() uses the wake pipe, this is a safety net).
constexpr int kIdleTimeoutMs = 500;
/// Pool bytes that key a shard DRBG: entropy input, then nonce.
constexpr std::size_t kDrbgKeyBytes =
    core::HmacDrbg::kEntropyInputBytes + core::HmacDrbg::kNonceBytes;
/// SP 800-90A personalization string mixed into every shard DRBG's seed.
constexpr std::string_view kDrbgPersonalization = "dhtrng-entropy-service";

}  // namespace

EntropyServer::EntropyServer(EntropyServerConfig config,
                             core::EntropyPool::SourceFactory factory)
    : config_(std::move(config)),
      pool_(config_.pool, std::move(factory)),
      global_bucket_(config_.global_rate_bytes_per_s,
                     config_.global_burst_bytes, config_.clock) {
  // HmacDrbg rejects a zero interval, and a shard keys its DRBG lazily.
  if (config_.drbg.reseed_interval == 0) config_.drbg.reseed_interval = 1;
  const std::size_t nshards = std::max<std::size_t>(1, config_.shards);
  const Poller::Backend backend = config_.force_poll_backend
                                      ? Poller::Backend::Poll
                                      : Poller::Backend::Auto;
  shards_.reserve(nshards);
  for (std::size_t i = 0; i < nshards; ++i) {
    shards_.push_back(std::make_unique<Shard>(backend, metrics_));
  }

  // Shard 0 owns every listener and places each accept round-robin
  // (drain_accepts).
  Shard& first = *shards_[0];
  if (config_.enable_tcp) {
    first.listeners.push_back(Listener::tcp_loopback(config_.tcp_port));
    tcp_port_ = first.listeners.back().port();
  }
  if (!config_.unix_path.empty()) {
    first.listeners.push_back(Listener::unix_domain(config_.unix_path));
  }
  if (first.listeners.empty()) {
    throw std::invalid_argument("EntropyServer: no listeners configured");
  }

  for (auto& shard : shards_) {
    shard->poller.add(shard->wake.read_fd(), /*want_read=*/true,
                      /*want_write=*/false);
  }
  for (auto& listener : first.listeners) {
    listener.set_nonblocking();
    first.poller.add(listener.fd(), /*want_read=*/true, /*want_write=*/false);
  }
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->thread = std::thread([this, s] { shard_loop(*s); });
  }
}

EntropyServer::~EntropyServer() { stop(); }

void EntropyServer::stop() {
  std::lock_guard<std::mutex> lock(stop_mutex_);
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  // Stop the pool first: closing it rings the doorbell of every shard
  // with a short draw armed.  Parked GETs are answered ShuttingDown on the
  // way out of the loop.
  pool_.stop();
  for (auto& shard : shards_) shard->wake.notify();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  // Handed-over fds no shard adopted still hold their slots.
  for (auto& shard : shards_) {
    for (int fd : shard->adopted) {
      ::close(fd);
      metrics_.connections_closed.fetch_add(1, std::memory_order_relaxed);
      metrics_.connections_active.fetch_sub(1, std::memory_order_acq_rel);
    }
    shard->adopted.clear();
  }
}

ServiceState EntropyServer::state() const {
  const core::PoolHealthSnapshot snap = pool_.snapshot();
  if (snap.healthy == 0) return ServiceState::Exhausted;
  return snap.retired > 0 ? ServiceState::Degraded : ServiceState::Healthy;
}

bool EntropyServer::using_epoll() const {
  return !shards_.empty() && shards_[0]->poller.using_epoll();
}

std::uint64_t EntropyServer::clock_now_ns() const {
  if (config_.clock) return config_.clock();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int EntropyServer::do_accept(int listener_fd) {
  if (config_.accept_fn) return config_.accept_fn(listener_fd);
  return accept_nonblocking(listener_fd);
}

// ---------------------------------------------------------------------------
// Shard event loop
// ---------------------------------------------------------------------------

int EntropyServer::shard_timeout_ms(const Shard& shard) const {
  int timeout = kIdleTimeoutMs;
  std::uint64_t now = 0;
  bool have_now = false;
  for (const auto& kv : shard.conns) {
    const Connection& c = *kv.second;
    if (!c.subscribed || c.close_after_flush) continue;
    if (c.sub_deferred) {
      timeout = std::min(timeout, kDeferredRetryMs);
      continue;
    }
    if (c.sub_interval_ms == 0) return 0;
    if (!have_now) {
      now = clock_now_ns();
      have_now = true;
    }
    if (now >= c.sub_due_ns) return 0;
    const std::uint64_t ms = (c.sub_due_ns - now) / 1000000u + 1;
    timeout = std::min<int>(
        timeout, static_cast<int>(std::min<std::uint64_t>(
                     ms, static_cast<std::uint64_t>(kIdleTimeoutMs))));
  }
  return timeout;
}

void EntropyServer::shard_loop(Shard& shard) {
  std::vector<Poller::Event> events;
  while (true) {
    shard.poller.wait(events, shard_timeout_ms(shard));
    metrics_.epoll_wakeups.fetch_add(1, std::memory_order_relaxed);
    if (stopping_.load(std::memory_order_acquire)) break;

    // Adopt handed-off connections first so their events (already
    // pending in the kernel) are picked up on the next wait.
    std::vector<int> adopted;
    {
      std::lock_guard<std::mutex> lock(shard.adopted_mutex);
      adopted.swap(shard.adopted);
    }
    for (int fd : adopted) attach_connection(shard, fd);

    for (const Poller::Event& event : events) {
      if (event.fd == shard.wake.read_fd()) {
        shard.wake.drain();
        continue;
      }
      bool was_listener = false;
      for (auto& listener : shard.listeners) {
        if (listener.fd() == event.fd) {
          drain_accepts(shard, listener);
          was_listener = true;
          break;
        }
      }
      if (was_listener) continue;
      auto it = shard.conns.find(event.fd);
      if (it == shard.conns.end()) continue;  // closed earlier this batch
      if (it->second->get.active && event.hangup) {
        // Reset while parked (read interest is off, so this is the only
        // way we learn of it): nobody is left to answer.
        close_connection(shard, event.fd);
        continue;
      }
      if (event.readable || event.hangup) {
        handle_readable(shard, *it->second);
        it = shard.conns.find(event.fd);
        if (it == shard.conns.end()) continue;
      }
      if (event.writable) flush_writes(shard, *it->second);
    }

    resume_parked(shard);
    service_subscriptions(shard);
  }

  // Shutdown: every parked GET gets its one response (best-effort
  // non-blocking flush) before the connections close.
  std::vector<int> parked;
  parked.swap(shard.parked);
  for (int fd : parked) {
    auto it = shard.conns.find(fd);
    if (it == shard.conns.end()) continue;
    Connection& conn = *it->second;
    conn.get = PendingDraw{};
    enqueue_error(shard, conn, Status::ShuttingDown, "server stopping");
    flush_writes(shard, conn);
  }

  // Shutdown: close every live connection, then the listeners.  Fds
  // handed over but not yet adopted are closed by stop() once every shard
  // has joined, since shard 0 may still hand one over after this shard
  // has left its loop.
  std::vector<int> fds;
  fds.reserve(shard.conns.size());
  for (const auto& kv : shard.conns) fds.push_back(kv.first);
  for (int fd : fds) close_connection(shard, fd);
  for (auto& listener : shard.listeners) listener.close();
}

void EntropyServer::drain_accepts(Shard& shard, Listener& listener) {
  while (true) {
    const int listener_fd = listener.fd();
    if (listener_fd < 0) return;  // closed after a fatal error
    const int fd = do_accept(listener_fd);
    if (fd >= 0) {
      metrics_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
      if (!claim_slot(fd)) continue;
      Shard& dest = *shards_[next_shard_];
      next_shard_ = (next_shard_ + 1) % shards_.size();
      if (&dest == &shard) {
        attach_connection(shard, fd);
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(dest.adopted_mutex);
        dest.adopted.push_back(fd);
      }
      dest.wake.notify();
      continue;
    }
    switch (classify_accept_errno(errno)) {
      case AcceptOutcome::WouldBlock:
        return;
      case AcceptOutcome::Retry:
        metrics_.accept_retries.fetch_add(1, std::memory_order_relaxed);
        continue;
      case AcceptOutcome::SoftExhausted:
        // fd/memory pressure: brief pause; the level-triggered poller
        // re-reports the backlog, so this costs one retry every 2 ms
        // until pressure clears instead of a hot spin.
        metrics_.accept_soft_errors.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return;
      case AcceptOutcome::Fatal:
        metrics_.accept_fatal_errors.fetch_add(1, std::memory_order_relaxed);
        shard.poller.del(listener_fd);
        listener.close();
        return;
    }
  }
}

bool EntropyServer::claim_slot(int fd) {
  const std::uint64_t slot =
      metrics_.connections_active.fetch_add(1, std::memory_order_acq_rel);
  if (slot < config_.max_connections) return true;
  metrics_.connections_active.fetch_sub(1, std::memory_order_acq_rel);
  metrics_.count_error(Status::Busy);
  // Best-effort unsolicited Busy on the fresh socket (a ~35-byte frame
  // always fits the empty send buffer), then close.
  const auto frame = encode_error_frame(Status::Busy, "connection slots full");
  (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
  ::close(fd);
  return false;
}

void EntropyServer::attach_connection(Shard& shard, int fd) {
  auto conn = std::make_unique<Connection>(fd, config_);
  conn->sock.set_nodelay();
  shard.poller.add(fd, /*want_read=*/true, /*want_write=*/false);
  shard.conns.emplace(fd, std::move(conn));
}

void EntropyServer::close_connection(Shard& shard, int fd) {
  auto it = shard.conns.find(fd);
  if (it == shard.conns.end()) return;
  Connection& conn = *it->second;
  if (conn.subscribed) end_subscription(conn);
  if (conn.get.active) std::erase(shard.parked, fd);
  shard.poller.del(fd);
  conn.sock.close();
  shard.conns.erase(it);
  metrics_.connections_closed.fetch_add(1, std::memory_order_relaxed);
  metrics_.connections_active.fetch_sub(1, std::memory_order_acq_rel);
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

void EntropyServer::handle_readable(Shard& shard, Connection& conn) {
  const int fd = conn.sock.fd();
  std::uint8_t buf[16384];
  while (!conn.read_closed && !conn.get.active) {
    const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r > 0) {
      conn.assembler.feed(buf, static_cast<std::size_t>(r));
      serve_frames(shard, conn);
      continue;
    }
    if (r == 0) {  // peer EOF
      if (conn.assembler.buffered() > 0 &&
          conn.assembler.error() == FrameAssembler::Error::None) {
        // Disconnect mid-frame: nobody left to answer.
        metrics_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      }
      conn.read_closed = true;
      conn.close_after_flush = true;  // flush queued responses, then close
      update_interest(shard, conn);
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_connection(shard, fd);  // hard socket error
    return;
  }
  flush_writes(shard, conn);
}

void EntropyServer::serve_frames(Shard& shard, Connection& conn) {
  std::vector<std::uint8_t> payload;
  while (!conn.close_after_flush && !conn.get.active &&
         conn.assembler.next(payload)) {
    serve_payload(shard, conn, payload);
  }
  if (conn.get.active) return;  // the rest waits behind the parked GET
  if (!conn.close_after_flush &&
      conn.assembler.error() != FrameAssembler::Error::None) {
    // Zero-length or oversized request frame: the stream cannot be
    // trusted past this point, so answer with a structured error and
    // close once it has flushed.
    metrics_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    const bool zero =
        conn.assembler.error() == FrameAssembler::Error::ZeroLength;
    enqueue_error(shard, conn, Status::BadRequest,
                  zero ? "zero-length frame" : "request frame too large");
    conn.close_after_flush = true;
  }
  if (conn.close_after_flush && !conn.read_closed) {
    conn.read_closed = true;
    update_interest(shard, conn);
  }
}

void EntropyServer::update_interest(Shard& shard, Connection& conn) {
  shard.poller.mod(conn.sock.fd(), !conn.read_closed && !conn.get.active,
                   conn.want_write);
}

void EntropyServer::serve_payload(Shard& shard, Connection& conn,
                                  const std::vector<std::uint8_t>& payload) {
  Request request;
  const DecodeError err =
      decode_request(payload.data(), payload.size(), request);
  if (err != DecodeError::None) {
    metrics_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    enqueue_error(shard, conn, Status::BadRequest, decode_error_name(err));
    conn.close_after_flush = true;
    return;
  }

  if (request.op == Opcode::Subscribe) {
    const auto reject = [&](Status status, const char* detail) {
      enqueue_error(shard, conn, status, detail);
    };
    if (stopping_.load(std::memory_order_acquire)) {
      reject(Status::ShuttingDown, "server stopping");
      return;
    }
    if (conn.subscribed) {
      reject(Status::BadRequest, "already subscribed");
      return;
    }
    if (request.n_bytes == 0) {
      reject(Status::BadRequest, "zero-byte subscription chunk");
      return;
    }
    if (request.n_bytes > config_.max_request_bytes) {
      reject(Status::TooLarge, "subscription chunk above per-request budget");
      return;
    }
    conn.subscribed = true;
    conn.sub_quality = request.quality;
    conn.sub_chunk = request.n_bytes;
    conn.sub_interval_ms = request.interval_ms;
    conn.sub_due_ns = clock_now_ns();  // first push is immediately due
    conn.sub_deferred = false;
    metrics_.subscriptions_opened.fetch_add(1, std::memory_order_relaxed);
    metrics_.subscriptions_active.fetch_add(1, std::memory_order_relaxed);
    enqueue_frame(shard, conn, encode_response_frame(Status::Ok, 0, {}));
    return;
  }
  if (request.op == Opcode::Unsubscribe) {
    if (!conn.subscribed) {
      enqueue_error(shard, conn, Status::BadRequest, "no active subscription");
      return;
    }
    end_subscription(conn);
    // FIFO write queue: every already-queued push precedes this ack, so
    // the ack is the stream-end marker the protocol promises.
    enqueue_frame(shard, conn, encode_response_frame(Status::Ok, 0, {}));
    return;
  }

  if (request.op == Opcode::Get) {
    serve_get(shard, conn, request);
    return;
  }
  std::string text;
  if (request.op == Opcode::Stats) {
    metrics_.stats_requests.fetch_add(1, std::memory_order_relaxed);
    const core::PoolCertSnapshot cert = pool_.cert_snapshot();
    text = render_stats(metrics_, state(), pool_.snapshot(), &cert,
                        config_.noise_mode_label);
  } else {  // Opcode::Cert
    metrics_.cert_requests.fetch_add(1, std::memory_order_relaxed);
    text = render_cert(pool_.cert_snapshot());
  }
  enqueue_frame(shard, conn,
                encode_response_frame(
                    Status::Ok, 0,
                    std::vector<std::uint8_t>(text.begin(), text.end())));
}

void EntropyServer::serve_get(Shard& shard, Connection& conn,
                              const Request& request) {
  const std::size_t n = request.n_bytes;
  if (stopping_.load(std::memory_order_acquire)) {
    enqueue_error(shard, conn, Status::ShuttingDown, "server stopping");
    return;
  }
  if (n > config_.max_request_bytes) {
    enqueue_error(shard, conn, Status::TooLarge,
                  "request above per-request byte budget");
    return;
  }
  if (const auto refusal = admit(shard, conn, conn.get, request.quality, n)) {
    enqueue_error(shard, conn, refusal->status, refusal->detail);
    return;
  }
  if (finish_get(shard, conn)) return;
  // The pool is short: park.  Reads stop until the GET completes, so the
  // frames behind it keep their order; the doorbell resumes it.
  metrics_.pool_parked_gets.fetch_add(1, std::memory_order_relaxed);
  shard.parked.push_back(conn.sock.fd());
  update_interest(shard, conn);
}

bool EntropyServer::finish_get(Shard& shard, Connection& conn) {
  PendingDraw& get = conn.get;
  const std::optional<Status> done = complete(shard, get);
  if (!done) return false;
  if (*done != Status::Ok) {
    enqueue_error(shard, conn, *done,
                  *done == Status::ShuttingDown
                      ? "server stopping"
                      : "entropy pool exhausted mid-request");
    return true;
  }
  if (enqueue_frame(shard, conn,
                    encode_response_frame(Status::Ok,
                                          get.degraded ? kFlagDegraded : 0,
                                          get.out))) {
    metrics_.count_served(get.quality, get.out.size(), get.degraded);
  }
  get = PendingDraw{};
  return true;
}

void EntropyServer::resume_parked(Shard& shard) {
  for (std::size_t i = 0; i < shard.parked.size();) {
    const int fd = shard.parked[i];
    Connection& conn = *shard.conns.at(fd);
    if (!finish_get(shard, conn)) {
      ++i;
      continue;
    }
    shard.parked.erase(shard.parked.begin() +
                       static_cast<std::ptrdiff_t>(i));
    // Frames pipelined behind the GET first (one may park again), then
    // the socket itself.
    serve_frames(shard, conn);
    if (!conn.get.active) update_interest(shard, conn);
    flush_writes(shard, conn);
  }
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

void EntropyServer::enqueue_error(Shard& shard, Connection& conn,
                                  Status status, const std::string& detail) {
  if (enqueue_frame(shard, conn, encode_error_frame(status, detail))) {
    metrics_.count_error(status);
  }
}

bool EntropyServer::enqueue_frame(Shard& shard, Connection& conn,
                                  std::vector<std::uint8_t> frame) {
  if (!conn.sock.valid()) return false;
  if (conn.write_bytes + frame.size() > config_.max_write_queue_bytes) {
    // The peer stopped reading: bounded back-pressure means we refuse to
    // buffer further.  Drop this frame, append one small structured Busy
    // (a constant-size overshoot of the cap) and close once it flushes.
    if (conn.close_after_flush) return false;  // overflow already answered
    metrics_.write_queue_overflows.fetch_add(1, std::memory_order_relaxed);
    metrics_.count_error(Status::Busy);
    auto busy = encode_error_frame(Status::Busy, "write queue overflow");
    conn.write_bytes += busy.size();
    conn.write_q.push_back(std::move(busy));
    conn.close_after_flush = true;
    conn.read_closed = true;
    update_interest(shard, conn);
    return false;
  }
  conn.write_bytes += frame.size();
  conn.write_q.push_back(std::move(frame));
  return true;
}

void EntropyServer::flush_writes(Shard& shard, Connection& conn) {
  const int fd = conn.sock.fd();
  while (!conn.write_q.empty()) {
    iovec iov[kWritevBatch];
    std::size_t niov = 0;
    std::size_t head = conn.write_head;
    for (const auto& frame : conn.write_q) {
      if (niov == kWritevBatch) break;
      iov[niov].iov_base =
          const_cast<std::uint8_t*>(frame.data()) + head;
      iov[niov].iov_len = frame.size() - head;
      head = 0;  // only the front frame has a sent prefix
      ++niov;
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = niov;
    const ssize_t sent = ::sendmsg(fd, &mh, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn.want_write) {
          conn.want_write = true;
          update_interest(shard, conn);
        }
        return;
      }
      close_connection(shard, fd);  // peer reset mid-response
      return;
    }
    metrics_.writev_calls.fetch_add(1, std::memory_order_relaxed);
    std::size_t remaining = static_cast<std::size_t>(sent);
    conn.write_bytes -= remaining;
    while (remaining > 0) {
      auto& front = conn.write_q.front();
      const std::size_t avail = front.size() - conn.write_head;
      if (remaining >= avail) {
        remaining -= avail;
        conn.write_q.pop_front();
        conn.write_head = 0;
        metrics_.writev_frames.fetch_add(1, std::memory_order_relaxed);
      } else {
        conn.write_head += remaining;
        remaining = 0;
      }
    }
  }
  if (conn.close_after_flush) {
    close_connection(shard, fd);
    return;
  }
  if (conn.want_write) {
    conn.want_write = false;
    update_interest(shard, conn);
  }
}

// ---------------------------------------------------------------------------
// Subscription pushes
// ---------------------------------------------------------------------------

void EntropyServer::end_subscription(Connection& conn) {
  conn.subscribed = false;
  conn.sub_deferred = false;
  conn.push = PendingDraw{};  // an unfinished push is dropped, never sent
  metrics_.subscriptions_closed.fetch_add(1, std::memory_order_relaxed);
  metrics_.subscriptions_active.fetch_sub(1, std::memory_order_relaxed);
}

void EntropyServer::service_subscriptions(Shard& shard) {
  if (shard.conns.empty()) return;
  std::vector<int> fds;
  for (const auto& kv : shard.conns) {
    if (kv.second->subscribed) fds.push_back(kv.first);
  }
  for (int fd : fds) {
    auto it = shard.conns.find(fd);
    if (it == shard.conns.end()) continue;
    push_subscription(shard, *it->second);
    it = shard.conns.find(fd);
    if (it != shard.conns.end()) flush_writes(shard, *it->second);
  }
}

void EntropyServer::push_subscription(Shard& shard, Connection& conn) {
  if (!conn.subscribed || conn.close_after_flush) return;
  if (!(conn.sub_interval_ms == 0 || conn.sub_deferred ||
        clock_now_ns() >= conn.sub_due_ns)) {
    return;  // not due yet
  }

  const auto end_stream = [&](Status status, const char* detail) {
    if (enqueue_frame(shard, conn,
                      encode_response_frame(
                          status, kFlagPush,
                          std::vector<std::uint8_t>(
                              detail, detail + std::strlen(detail))))) {
      metrics_.count_error(status);
    }
    end_subscription(conn);
    conn.close_after_flush = true;
    conn.read_closed = true;
    update_interest(shard, conn);
  };

  if (stopping_.load(std::memory_order_acquire)) {
    end_stream(Status::ShuttingDown, "server stopping");
    return;
  }
  if (!conn.push.active) {
    // A push is taken whole or not at all — first the write-queue room
    // (checked before any tokens are spent), then the buckets — so the
    // byte accounting identity holds exactly for streams too.
    const std::size_t frame_bytes =
        kLenPrefixBytes + kResponseHeaderBytes + conn.sub_chunk;
    if (conn.write_bytes + frame_bytes > config_.max_write_queue_bytes) {
      metrics_.subscribe_deferred_backpressure.fetch_add(
          1, std::memory_order_relaxed);
      conn.sub_deferred = true;
      return;
    }
    if (const auto refusal = admit(shard, conn, conn.push, conn.sub_quality,
                                   conn.sub_chunk)) {
      if (refusal->status == Status::RateLimited) {
        metrics_.subscribe_deferred_rate.fetch_add(1,
                                                   std::memory_order_relaxed);
        conn.sub_deferred = true;
      } else {
        end_stream(refusal->status, refusal->detail);
      }
      return;
    }
  }

  // The push was paid for when it began: it stays deferred (whole, never
  // split) until the pool has covered all of it.
  const std::optional<Status> done = complete(shard, conn.push);
  if (!done) {
    conn.sub_deferred = true;
    return;
  }
  if (*done != Status::Ok) {
    end_stream(*done, *done == Status::ShuttingDown
                          ? "server stopping"
                          : "entropy pool exhausted mid-push");
    return;
  }
  const bool degraded = conn.push.degraded;
  const std::uint8_t flags =
      kFlagPush | (degraded ? kFlagDegraded : std::uint8_t{0});
  enqueue_frame(shard, conn,
                encode_response_frame(Status::Ok, flags, conn.push.out));
  metrics_.count_served(conn.sub_quality, conn.sub_chunk, degraded);
  metrics_.subscribe_pushes.fetch_add(1, std::memory_order_relaxed);
  metrics_.subscribe_push_bytes.fetch_add(conn.sub_chunk,
                                          std::memory_order_relaxed);
  if (degraded) {
    metrics_.subscribe_pushes_degraded.fetch_add(1, std::memory_order_relaxed);
  }
  conn.push = PendingDraw{};
  conn.sub_deferred = false;
  conn.sub_due_ns = clock_now_ns() +
                    static_cast<std::uint64_t>(conn.sub_interval_ms) * 1000000u;
}

// ---------------------------------------------------------------------------
// Entropy draws
// ---------------------------------------------------------------------------

std::optional<EntropyServer::Refusal> EntropyServer::admit(
    Shard& shard, Connection& conn, PendingDraw& draw, Quality quality,
    std::size_t n) {
  if (!conn.bucket.try_acquire(n)) {
    return Refusal{Status::RateLimited, "per-connection rate limit"};
  }
  if (!global_bucket_.try_acquire(n)) {
    return Refusal{Status::RateLimited, "global rate limit"};
  }
  const ServiceState st = state();
  if (st == ServiceState::Exhausted) {
    // Fail closed: no live noise source behind the service, so refuse —
    // even though gated bytes may remain buffered and the fallback DRBG
    // could keep stretching its last seed.
    return Refusal{Status::Exhausted, "all entropy producers retired"};
  }
  begin_draw(shard, draw, quality, n, st == ServiceState::Degraded);
  return std::nullopt;
}

std::optional<Status> EntropyServer::complete(Shard& shard,
                                              PendingDraw& draw) {
  try {
    if (!fill_draw(shard, draw)) return std::nullopt;
  } catch (const core::EntropyExhausted&) {
    draw = PendingDraw{};
    // The pool closes for good either when stop() begins (stopping_ is
    // set first) or when the last producer retires.
    return stopping_.load(std::memory_order_acquire) ? Status::ShuttingDown
                                                     : Status::Exhausted;
  }
  return Status::Ok;
}

void EntropyServer::begin_draw(const Shard& shard, PendingDraw& draw,
                               Quality quality, std::size_t n,
                               bool degraded) const {
  draw.active = true;
  draw.quality = quality;
  draw.degraded = degraded;
  draw.out.resize(n);
  draw.filled = 0;
  draw.input_filled = 0;
  draw.input_want = 0;
  if (!degraded && quality != Quality::Drbg) return;
  static_assert(kDrbgKeyBytes <= std::tuple_size_v<decltype(draw.input)>);
  // The shard DRBG's seed, fixed now so a parked draw keeps gathering the
  // same count: entropy input + nonce to key it, entropy input to reseed
  // it when its interval is used up, or — inside DEGRADED — when a pool
  // quarantine changed the producer set since it was last keyed.
  if (!shard.drbg) {
    draw.input_want = kDrbgKeyBytes;
  } else if (shard.drbg->reseed_required() ||
             (degraded &&
              pool_.quarantine_events() != shard.drbg_quarantines)) {
    draw.input_want = core::HmacDrbg::kEntropyInputBytes;
  }
}

bool EntropyServer::fill_draw(Shard& shard, PendingDraw& draw) {
  const std::size_t n = draw.out.size();
  const auto gather = [&](std::size_t want) {
    draw.input_filled += pool_.try_get_bytes(
        std::span<std::uint8_t>(draw.input)
            .subspan(draw.input_filled, want - draw.input_filled),
        &shard.doorbell);
    return draw.input_filled == want;
  };
  if (draw.quality == Quality::Raw && !draw.degraded) {
    draw.filled += pool_.try_get_bytes(
        std::span<std::uint8_t>(draw.out).subspan(draw.filled),
        &shard.doorbell);
    return draw.filled == n;
  }
  if (draw.quality == Quality::Drbg || draw.degraded) {
    if (draw.input_filled < draw.input_want) {
      if (!gather(draw.input_want)) return false;
      rekey_drbg(shard, draw);
    }
    shard.drbg->generate(draw.out.data(), n);
    return true;
  }
  // Vetted conditioning (SP 800-90B 3.1.5.1.2): one SHA-256 digest per
  // conditioner input block of health-gated pool bytes.
  while (draw.filled < n) {
    if (!gather(core::kConditionInputBytes)) return false;
    const auto digest = core::sha256_condition_block(
        std::span(draw.input).first<core::kConditionInputBytes>());
    const std::size_t take = std::min(digest.size(), n - draw.filled);
    std::copy_n(digest.begin(), take,
                draw.out.begin() + static_cast<std::ptrdiff_t>(draw.filled));
    draw.filled += take;
    draw.input_filled = 0;
  }
  return true;
}

void EntropyServer::rekey_drbg(Shard& shard, const PendingDraw& draw) {
  const std::uint64_t quarantines = pool_.quarantine_events();
  // Keying inside DEGRADED, or re-keying after a quarantine, is the
  // re-key from the surviving producers the ladder promises; an interval
  // reseed is not.
  if (draw.degraded &&
      (!shard.drbg || quarantines != shard.drbg_quarantines)) {
    metrics_.drbg_fallback_reseeds.fetch_add(1, std::memory_order_relaxed);
  }
  const auto input = std::span<const std::uint8_t>(draw.input);
  const auto entropy = input.first(core::HmacDrbg::kEntropyInputBytes);
  if (shard.drbg) {
    // Also a keying draw that another draw on this shard beat to it.
    shard.drbg->reseed(entropy);
  } else {
    shard.drbg.emplace(
        entropy, input.subspan(entropy.size(), core::HmacDrbg::kNonceBytes),
        config_.drbg,
        core::HmacDrbg::Bytes(
            reinterpret_cast<const std::uint8_t*>(kDrbgPersonalization.data()),
            kDrbgPersonalization.size()));
  }
  shard.drbg_quarantines = quarantines;
}

}  // namespace dhtrng::service
