// Health-gated parallel entropy service: N producer threads each drive an
// independent TrngSource, run the SP 800-90B continuous health tests
// (stats/health.h RCT + APT) over every bit they emit, and feed a bounded
// shared buffer (core/block_channel.h) that consumers drain via
// get_bytes() (blocking) or try_get_bytes() (non-blocking, with an
// optional readiness Doorbell).
//
// Hand-off granularity: a producer fills one whole block through
// TrngSource::generate (the word path for DhTrngSoA), health-tests it
// word by word, packs it MSB-first and publishes it with one lock and one
// notify.  A single producer's output is therefore exactly its source's
// stream packed MSB-first; with several producers the stream interleaves
// whole blocks (never bytes) in publish order.
//
// Failure policy (the deployment behaviour SP 800-90B section 4.3 asks an
// entropy source to document):
//  * a block during which a producer's health monitor alarms is discarded
//    in full — no bit of it reaches the buffer;
//  * the alarming producer is quarantined: its source is rebuilt through
//    the factory with a fresh derived seed and its monitors reset;
//  * a producer that alarms on `max_reseeds` consecutive blocks is retired
//    permanently (a genuinely stuck source keeps failing after reseeding);
//  * get_bytes() keeps serving from the remaining healthy producers and
//    only throws EntropyExhausted once every producer has been retired and
//    the buffer has drained.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/block_channel.h"
#include "core/dhtrng.h"
#include "core/dhtrng_soa.h"
#include "core/trng.h"
#include "stats/health.h"
#include "stats/streaming.h"

namespace dhtrng::core {

struct EntropyPoolConfig {
  std::size_t producers = 4;
  /// Bounded buffer capacity; full buffer backpressures the producers.
  /// Must hold at least one block (block_bits / 8 bytes).
  std::size_t buffer_bytes = 1 << 16;
  /// Production granularity: bits generated and health-tested per push.
  /// Must be a multiple of 8.
  std::size_t block_bits = 4096;
  /// H-claim for the RCT/APT cutoffs (per-bit min-entropy).
  double min_entropy_per_bit = 0.9;
  /// Consecutive alarmed blocks before a producer is retired for good.
  std::size_t max_reseeds = 3;
  /// Master seed; per-producer seeds are SplitMix64-derived from it.
  std::uint64_t seed = 1;
  /// Run a stats::streaming::SourceTracker per producer over every block
  /// that passes the health gate (i.e. the exact served stream), powering
  /// cert_snapshot() and the service CERT verb.
  bool certify = true;
  /// Tracker geometry.  block_len/window_bits are clamped down to the
  /// largest power of two dividing block_bits, so per-block feeding keeps
  /// every tracker block/window-aligned and the merged pool view exact.
  stats::streaming::TrackerConfig tracker;
};

/// Thrown by get_bytes() when every producer has been retired.
struct EntropyExhausted : std::runtime_error {
  EntropyExhausted() : std::runtime_error(
      "EntropyPool: all producers unhealthy, refusing to emit bytes") {}
};

/// One coherent view of the pool's failure-policy counters, for consumers
/// that gate their own behaviour on pool health (service::EntropyServer's
/// degradation ladder, the STATS admin command).  Counters are sampled
/// individually from atomics — the snapshot is eventually consistent, not
/// a transaction.
struct PoolHealthSnapshot {
  std::size_t producers = 0;        ///< configured producer count
  std::size_t healthy = 0;          ///< producers not permanently retired
  std::size_t retired = 0;          ///< producers retired for good
  std::uint64_t quarantines = 0;    ///< health alarms (block discarded)
  std::uint64_t reseeds = 0;        ///< quarantines cured by a rebuild
  std::uint64_t bytes_produced = 0; ///< bytes that passed the health gate
  bool exhausted = false;           ///< every producer retired
};

/// Live streaming-certification view: one tracker snapshot per producer
/// (over exactly the health-gated bits that producer contributed) plus
/// the pool-wide merge.  Producers feed their trackers whole blocks under
/// a per-producer lock, so every snapshot observes block-aligned state
/// and the merge is exact (see stats/streaming.h).
struct PoolCertSnapshot {
  bool enabled = false;                       ///< config.certify
  stats::streaming::TrackerConfig tracker;    ///< effective (clamped) config
  std::vector<stats::streaming::Snapshot> producers;
  stats::streaming::Snapshot merged;
};

class EntropyPool {
 public:
  /// Builds the TrngSource for producer `index`; called again with a fresh
  /// derived seed each time that producer is reseeded out of quarantine.
  using SourceFactory = std::function<std::unique_ptr<TrngSource>(
      std::size_t index, std::uint64_t seed)>;

  EntropyPool(EntropyPoolConfig config, SourceFactory factory);

  /// Convenience: a pool of DhTrng producers with the given per-core config
  /// (seeds are re-derived per producer).
  static EntropyPool of_dhtrng(EntropyPoolConfig config,
                               DhTrngConfig core = {});

  /// Convenience: a pool of DhTrngSoA producers — each producer is a
  /// bitsliced 64-instance block, so one producer thread feeds the buffer
  /// at bulk-generation rather than single-instance rate.  Seeds are
  /// re-derived per producer exactly as in of_dhtrng.
  static EntropyPool of_dhtrng_soa(EntropyPoolConfig config,
                                   DhTrngSoAConfig core = {});

  ~EntropyPool();

  EntropyPool(const EntropyPool&) = delete;
  EntropyPool& operator=(const EntropyPool&) = delete;
  EntropyPool(EntropyPool&&) = delete;

  /// Blocks until `n` health-tested bytes are available (FIFO across
  /// producers).  Throws EntropyExhausted once all producers are retired
  /// and the buffered remainder cannot cover the request.
  std::vector<std::uint8_t> get_bytes(std::size_t n);

  /// Non-blocking draw: copies up to out.size() buffered health-tested
  /// bytes into `out` and returns how many (possibly 0).  When it comes up
  /// short and `doorbell` is non-null, the doorbell is armed with the
  /// shortfall and rung once, from a producer thread, when the buffer
  /// covers it (or is too full to take another block, or the pool closes)
  /// — callers then retry with the rest of their span.  Throws
  /// EntropyExhausted once the buffer is closed and drained short of the
  /// request (bytes copied by that call are lost with it).
  std::size_t try_get_bytes(std::span<std::uint8_t> out,
                            Doorbell* doorbell = nullptr);

  /// Stop producers and wake blocked consumers; idempotent (the destructor
  /// calls it).  After stop(), get_bytes() drains the buffer then throws.
  void stop();

  std::size_t producers() const { return states_.size(); }
  /// Producers not permanently retired.
  std::size_t healthy_producers() const;
  /// Producers permanently retired.
  std::size_t retired_producers() const;
  /// True once every producer has been retired (get_bytes() will throw as
  /// soon as the buffered remainder drains).
  bool exhausted() const;
  /// Total health alarms observed (each triggers a quarantine + reseed,
  /// or the retirement once `max_reseeds` is exceeded).
  std::uint64_t quarantine_events() const;
  /// Quarantines that ended in a rebuild (quarantines minus retirements).
  std::uint64_t reseed_events() const;
  /// Bytes that passed the health gate into the buffer.
  std::uint64_t bytes_produced() const;
  /// All of the above in one struct (see PoolHealthSnapshot).
  PoolHealthSnapshot snapshot() const;
  /// Per-producer + merged streaming-certification snapshots (empty with
  /// certify = false).
  PoolCertSnapshot cert_snapshot() const;
  /// The tracker geometry actually in use (after block_bits clamping).
  const stats::streaming::TrackerConfig& tracker_config() const {
    return tracker_config_;
  }

 private:
  struct ProducerState {
    std::unique_ptr<TrngSource> source;
    stats::HealthMonitor monitor;
    /// Streaming certification over this producer's health-gated output;
    /// fed whole blocks under tracker_mutex after the health decision, so
    /// snapshots always observe block-aligned state.
    stats::streaming::SourceTracker tracker;
    mutable std::mutex tracker_mutex;
    std::uint64_t reseed_sequence = 0;  ///< seeds consumed by this producer
    std::size_t consecutive_alarms = 0;
    std::atomic<bool> retired{false};
    std::thread thread;

    ProducerState(double h_claim, stats::streaming::TrackerConfig tracker_cfg)
        : monitor(h_claim), tracker(tracker_cfg) {}
  };

  void producer_loop(std::size_t index);
  std::uint64_t derived_seed(std::size_t index, std::uint64_t sequence) const;

  EntropyPoolConfig config_;
  stats::streaming::TrackerConfig tracker_config_;  ///< clamped to block_bits
  SourceFactory factory_;
  BlockChannel buffer_;
  std::vector<std::unique_ptr<ProducerState>> states_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> retired_count_{0};
  std::atomic<std::uint64_t> quarantines_{0};
  std::atomic<std::uint64_t> reseeds_{0};
  std::atomic<std::uint64_t> bytes_produced_{0};
};

}  // namespace dhtrng::core
