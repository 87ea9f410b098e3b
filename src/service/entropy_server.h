// Entropy-as-a-service daemon: the deliverable end of the DH-TRNG stack.
// Serves health-gated pool bytes (RAW), SHA-256 2:1 conditioned bytes
// (CONDITIONED), and SP 800-90A HMAC_DRBG output (DRBG) over the
// length-prefixed protocol in service/protocol.h, on TCP loopback and/or
// Unix-domain listeners.
//
// The I/O core is a sharded readiness loop: `shards` event-loop threads,
// each with its own Poller (epoll on Linux, poll elsewhere — see
// service/poller.h) and its own set of non-blocking connections.  Shard 0
// owns both listeners (TCP and Unix-domain) and places every accepted fd
// round-robin over all shards — itself included — handing the others
// theirs through a wake-pipe doorbell, so connection placement depends
// only on accept order, never on kernel hashing.  Each connection is a small
// state machine: a FrameAssembler tolerates any read fragmentation
// (byte-at-a-time through fully coalesced), responses are queued and
// flushed with batched writev (sendmsg, up to 16 frames per call), and
// every write queue is byte-bounded — a peer that stops reading gets a
// structured Status::Busy and a close, never unbounded buffering.
// Requests on one connection are still answered strictly in order, so
// response frames can never interleave.
//
// Pool draws never block a shard, whatever the quality.  A GET takes what
// the pool has buffered (EntropyPool::try_get_bytes): Raw bytes
// directly, Conditioned bytes as 64-byte SHA-256 inputs, and the seed of
// the shard's own HMAC_DRBG (Drbg quality, and every quality while
// DEGRADED) as 64 bytes to key it or 48 to reseed it.  When the pool is
// short the GET *parks* on its connection, keeping what it has gathered,
// and the shard arms its doorbell — once the pool holds enough to finish
// it, the publishing producer rings the shard's WakePipe and the GET
// resumes where it left off.  While parked, that connection reads no
// further frames (its read interest is off, so the kernel socket buffer
// back-pressures the peer), which keeps replies in request order; every
// other connection on the shard carries on.  stop() answers a parked GET
// with one ShuttingDown error.
//
// SUBSCRIBE (protocol.h) turns a connection into a push stream serviced
// by its shard's loop: pushes draw through the same token buckets and
// degradation ladder as GET, a push that a bucket, the write queue or
// the pool cannot complete whole is deferred (never split, so byte
// accounting stays exact), and push cadence is timed by the injectable
// clock so tests can freeze it.
//
// Failure policy (the SP 800-90B section 4.3 deployment behaviour, wired
// to core::EntropyPool's quarantine/reseed/retire state machine):
//
//   HEALTHY    no producer retired — every quality is served from live
//              pool output.
//   DEGRADED   at least one producer retired but survivors remain —
//              all qualities transparently fall back to the shard's
//              HMAC_DRBG (re-keyed from the surviving producers' pool
//              bytes after every pool quarantine) and every response is
//              flagged kFlagDegraded so the client can apply its own
//              policy.
//   EXHAUSTED  every producer retired — the service fails closed: GET
//              returns a structured Status::Exhausted error and a live
//              subscription ends with one kFlagPush-flagged Exhausted
//              frame (even though the fallback DRBG could keep stretching
//              its last seed, and even if health-gated bytes remain
//              buffered) instead of hanging or serving entropy with no
//              live noise source behind it.
//
// The ladder is fixed: no setting moves the DEGRADED edge off the first
// retirement, and the CERT/STATS pass verdicts use the fixed floors
// stats::streaming::kAlpha and kMinEntropy (see service/metrics.h).
//
// Backpressure: per-request byte cap (`max_request_bytes`), a global and
// a per-connection token bucket (Status::RateLimited, all-or-nothing so
// byte accounting stays exact), a connection-slot cap (Status::Busy sent
// on the freshly accepted socket, which is then closed), and the bounded
// per-connection write queue (`max_write_queue_bytes`).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/drbg.h"
#include "core/entropy_pool.h"
#include "service/frame_assembler.h"
#include "service/metrics.h"
#include "service/poller.h"
#include "service/protocol.h"
#include "service/rate_limiter.h"
#include "service/socket.h"

namespace dhtrng::service {

struct EntropyServerConfig {
  /// TCP listener on 127.0.0.1 (0 = kernel-assigned ephemeral port, see
  /// tcp_port()); set `enable_tcp` false to disable.
  bool enable_tcp = true;
  std::uint16_t tcp_port = 0;
  /// Unix-domain listener path; empty = disabled.
  std::string unix_path;

  /// Event-loop shards (readiness-loop threads); at least one runs.
  std::size_t shards = 4;
  /// Connections beyond this get Status::Busy at accept time.
  std::size_t max_connections = 64;
  /// Per-request byte budget; larger GETs get Status::TooLarge.
  std::size_t max_request_bytes = 1 << 20;
  /// Bound on queued-but-unsent response bytes per connection; a peer
  /// that stops reading past this gets Status::Busy and a close.
  std::size_t max_write_queue_bytes = 4 << 20;

  /// Token buckets (bytes); a rate of 0 disables that bucket.
  std::uint64_t global_rate_bytes_per_s = 0;
  std::uint64_t global_burst_bytes = 1 << 20;
  std::uint64_t per_conn_rate_bytes_per_s = 0;
  std::uint64_t per_conn_burst_bytes = 1 << 16;

  /// Noise fidelity label reported as `noise_mode` in STATS output
  /// ("exact" or "fast").  Purely informational — the actual mode lives
  /// in the producer configs the SourceFactory captures, so whoever
  /// builds the factory sets the label to match.
  std::string noise_mode_label = "exact";

  /// Parameters of each shard's DRBG, which serves the Drbg quality and
  /// the DEGRADED fallback (reseed_interval: generate calls between pool
  /// reseeds, on top of the per-quarantine re-keys while DEGRADED).
  core::HmacDrbgConfig drbg;

  /// The entropy pool this server fronts.
  core::EntropyPoolConfig pool;

  /// Injectable monotonic clock (nanoseconds) for the token buckets and
  /// the subscription push cadence (tests freeze it for determinism).
  TokenBucket::Clock clock;

  /// Force the portable poll(2) poller backend even where epoll exists
  /// (CI exercises the fallback on Linux through this).
  bool force_poll_backend = false;

  /// Test seam for the accept path: called instead of
  /// accept_nonblocking(listener_fd) when set.  Must return a
  /// non-blocking fd or -1 with errno set (see classify_accept_errno).
  std::function<int(int)> accept_fn;
};

class EntropyServer {
 public:
  /// Starts the pool, the listeners and the shard loops.  `factory`
  /// builds the pool's producers (see EntropyPool::SourceFactory) — the
  /// fault-injection tests drive the degradation ladder through it.
  EntropyServer(EntropyServerConfig config,
                core::EntropyPool::SourceFactory factory);

  ~EntropyServer();

  EntropyServer(const EntropyServer&) = delete;
  EntropyServer& operator=(const EntropyServer&) = delete;

  /// Stop the pool (ringing every armed doorbell), wake every shard
  /// loop, close every connection and join the shards; idempotent (the
  /// destructor calls it).  active_connections() is 0 on return.
  void stop();

  /// Actual TCP port (after ephemeral binding); 0 if TCP is disabled.
  std::uint16_t tcp_port() const { return tcp_port_; }
  const std::string& unix_path() const { return config_.unix_path; }

  /// Current degradation-ladder state, derived from pool health.
  ServiceState state() const;

  const Metrics& metrics() const { return metrics_; }
  std::size_t active_connections() const {
    return static_cast<std::size_t>(
        metrics_.connections_active.load(std::memory_order_acquire));
  }
  std::size_t shard_count() const { return shards_.size(); }
  /// Whether the shards run the epoll backend (false = poll fallback).
  bool using_epoll() const;
  core::PoolHealthSnapshot pool_snapshot() const { return pool_.snapshot(); }
  core::PoolCertSnapshot pool_cert_snapshot() const {
    return pool_.cert_snapshot();
  }

 private:
  /// A draw filled across as many non-blocking pool hand-offs as it
  /// takes.  A Raw draw fills `out` directly (`filled` bytes so far); a
  /// Conditioned draw gathers each 64-byte SHA-256 input in `input`; a
  /// DRBG draw (Drbg quality, or `degraded`) gathers the `input_want`
  /// bytes that key or reseed the shard DRBG there — fixed when the draw
  /// begins, 0 when the DRBG needs neither — then generates `out`.
  struct PendingDraw {
    bool active = false;
    Quality quality = Quality::Raw;
    bool degraded = false;  ///< admitted while the ladder read DEGRADED
    std::vector<std::uint8_t> out;
    std::size_t filled = 0;
    std::array<std::uint8_t, 64> input{};
    std::size_t input_filled = 0;
    std::size_t input_want = 0;
  };

  /// Per-connection state machine, owned by exactly one shard (no lock:
  /// only that shard's loop thread touches it).
  struct Connection {
    Connection(int fd, const EntropyServerConfig& cfg)
        : sock(fd),
          bucket(cfg.per_conn_rate_bytes_per_s, cfg.per_conn_burst_bytes,
                 cfg.clock) {}

    Socket sock;
    FrameAssembler assembler;
    TokenBucket bucket;

    /// Queued response frames; `write_head` is the sent prefix of the
    /// front frame, `write_bytes` the total unsent bytes (the bound).
    std::deque<std::vector<std::uint8_t>> write_q;
    std::size_t write_head = 0;
    std::size_t write_bytes = 0;
    bool want_write = false;        ///< write interest registered
    bool close_after_flush = false; ///< close once write_q drains
    bool read_closed = false;       ///< peer EOF seen; stop reading
    /// A GET parked for pool bytes (get.active); frames behind it wait.
    PendingDraw get;

    // Subscription stream state (SUBSCRIBE .. UNSUBSCRIBE/disconnect).
    bool subscribed = false;
    Quality sub_quality = Quality::Raw;
    std::uint32_t sub_chunk = 0;
    std::uint32_t sub_interval_ms = 0;
    std::uint64_t sub_due_ns = 0;  ///< injectable-clock time of next push
    bool sub_deferred = false;     ///< last push attempt was deferred
    PendingDraw push;              ///< push still filling from the pool
  };

  /// Armed by a shard whose pool draw came up short; a producer thread
  /// rings it once the pool can cover the shortfall (or the pool closes),
  /// which wakes the shard's loop through its WakePipe.
  class PoolDoorbell final : public core::Doorbell {
   public:
    PoolDoorbell(WakePipe& wake, std::atomic<std::uint64_t>& rings)
        : wake_(wake), rings_(rings) {}
    void ring() override {
      rings_.fetch_add(1, std::memory_order_relaxed);
      wake_.notify();
    }

   private:
    WakePipe& wake_;
    std::atomic<std::uint64_t>& rings_;
  };

  /// One event-loop shard: poller + wake pipe + its connections and DRBG
  /// (and, on shard 0 only, the listeners).  Only `adopted` crosses
  /// threads (shard 0 hands accepts over) and is mutex-protected;
  /// `doorbell` is rung from producer threads and only touches the wake
  /// pipe.
  struct Shard {
    Shard(Poller::Backend backend, Metrics& metrics)
        : poller(backend), doorbell(wake, metrics.pool_doorbell_wakeups) {}
    Poller poller;
    WakePipe wake;
    PoolDoorbell doorbell;
    std::vector<Listener> listeners;  ///< empty except on shard 0
    std::unordered_map<int, std::unique_ptr<Connection>> conns;
    /// Connections with a parked GET, in parking order.
    std::vector<int> parked;
    /// Keyed from pool bytes by the shard's first DRBG draw.
    std::optional<core::HmacDrbg> drbg;
    /// Pool quarantines when `drbg` was last keyed or reseeded.
    std::uint64_t drbg_quarantines = 0;
    std::mutex adopted_mutex;
    std::vector<int> adopted;
    std::thread thread;
  };

  void shard_loop(Shard& shard);
  int shard_timeout_ms(const Shard& shard) const;
  /// Accept every pending connection on shard 0's `listener` and place
  /// each on the next shard in round-robin order.
  void drain_accepts(Shard& shard, Listener& listener);
  /// Claim a connection slot for a freshly accepted fd; Busy+close over
  /// the cap.  Returns true when the slot was claimed.
  bool claim_slot(int fd);
  /// Attach an accepted (slot-holding) fd to `shard`'s loop.
  void attach_connection(Shard& shard, int fd);
  void handle_readable(Shard& shard, Connection& conn);
  /// Serve the complete frames buffered in conn's assembler, in order,
  /// stopping at a GET that parks.
  void serve_frames(Shard& shard, Connection& conn);
  /// Serve one complete request payload (decode + dispatch + enqueue).
  void serve_payload(Shard& shard, Connection& conn,
                     const std::vector<std::uint8_t>& payload);
  /// GET pre-checks, admission and draw; parks the GET when the pool is
  /// short.
  void serve_get(Shard& shard, Connection& conn, const Request& request);
  /// Try to finish conn's parked GET; true once it has been answered.
  bool finish_get(Shard& shard, Connection& conn);
  /// Retry every parked GET on this shard once, resuming the reads of
  /// each connection whose GET completes.
  void resume_parked(Shard& shard);
  /// Re-register read/write interest (no reads while closed or parked).
  void update_interest(Shard& shard, Connection& conn);
  void enqueue_error(Shard& shard, Connection& conn, Status status,
                     const std::string& detail);
  /// Queues `frame`; false when it was dropped because the write queue
  /// is full (the connection then gets one Busy frame and closes), so
  /// callers count only what is queued.
  bool enqueue_frame(Shard& shard, Connection& conn,
                     std::vector<std::uint8_t> frame);
  /// Batched non-blocking flush; closes the connection on write error or
  /// once drained with close_after_flush set.
  void flush_writes(Shard& shard, Connection& conn);
  /// Attempt every due subscription push on this shard once.
  void service_subscriptions(Shard& shard);
  /// One push attempt; updates deferral state and cadence.
  void push_subscription(Shard& shard, Connection& conn);
  void end_subscription(Connection& conn);
  void close_connection(Shard& shard, int fd);

  /// Why admit() turned a draw away: the status and detail of the
  /// caller's refusal.
  struct Refusal {
    Status status;
    const char* detail;
  };
  /// Admission shared by GET and push: spend `n` tokens from conn's
  /// bucket, then from the global bucket, read the ladder and begin the
  /// draw into `draw`.  Returns the refusal instead when a bucket is
  /// short (RateLimited) or the ladder reads EXHAUSTED.
  std::optional<Refusal> admit(Shard& shard, Connection& conn,
                               PendingDraw& draw, Quality quality,
                               std::size_t n);
  /// Advance an admitted draw without blocking: nullopt while the pool is
  /// short (the shard's doorbell is armed), Status::Ok once the draw is
  /// complete in draw.out.  A draw the closed pool can no longer finish is
  /// dropped with Status::ShuttingDown once stop() has begun, else
  /// Status::Exhausted.
  std::optional<Status> complete(Shard& shard, PendingDraw& draw);
  /// Start a draw of `n` bytes into `draw`, admitted while the ladder
  /// read DEGRADED when `degraded`.
  void begin_draw(const Shard& shard, PendingDraw& draw, Quality quality,
                  std::size_t n, bool degraded) const;
  /// Advance `draw` without blocking; true once complete.  Arms the
  /// shard's doorbell when the pool is short.  Throws
  /// core::EntropyExhausted.
  bool fill_draw(Shard& shard, PendingDraw& draw);
  /// Key or reseed the shard DRBG from a DRBG draw's gathered input.
  void rekey_drbg(Shard& shard, const PendingDraw& draw);

  std::uint64_t clock_now_ns() const;
  int do_accept(int listener_fd);

  EntropyServerConfig config_;
  core::EntropyPool pool_;
  Metrics metrics_;

  TokenBucket global_bucket_;
  std::atomic<bool> stopping_{false};
  std::mutex stop_mutex_;  ///< serializes stop() with the constructor

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Round-robin cursor over shards_ for accepted fds (shard 0's loop
  /// only).
  std::size_t next_shard_ = 0;
  std::uint16_t tcp_port_ = 0;
};

}  // namespace dhtrng::service
