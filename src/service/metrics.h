// Atomic metrics registry behind the STATS admin command.  Every counter
// is a relaxed atomic — the registry never synchronizes the data path, it
// only observes it — and render_stats() emits the plaintext
// "key value\n" dump that admin tooling (trng_tool stats) and the
// degradation-ladder tests consume.
//
// Counter semantics the tests rely on:
//  * responses_ok counts unflagged Ok GET responses; responses_degraded
//    counts Ok GET responses flagged kFlagDegraded — a GET lands in
//    exactly one responses_* bucket;
//  * bytes_served_* count entropy bytes actually shipped (rejected and
//    error responses ship zero);
//  * connections_active is a gauge and must return to zero when every
//    client is gone (the protocol tests assert the slot count drains);
//  * pool_parked_gets counts GETs that found the pool short and parked on
//    their connection (once per GET, however often it resumes short);
//    pool_doorbell_wakeups counts doorbell rings — a producer publishing
//    enough to cover a shard's armed shortfall (or finding the pool full,
//    or the pool closing).  With one shard, one parked GET and a block
//    that covers it, both read exactly 1;
//  * write_queue_overflows counts connections closed after one Busy
//    "write queue overflow" frame because the peer stopped reading; the
//    reply that overflowed is dropped and counts only as that Busy.
//
// Every `_pass` line (cert_pass, pool_source_<i>_pass and the CERT
// dump's) is streaming::Snapshot::pass() against the fixed floors
// stats::streaming::kAlpha and kMinEntropy, which CERT echoes as
// cert_alpha and cert_min_entropy.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "core/entropy_pool.h"
#include "service/protocol.h"
#include "stats/streaming.h"

namespace dhtrng::service {

/// The degradation-ladder state the server derives from pool health.
enum class ServiceState { Healthy, Degraded, Exhausted };

const char* service_state_name(ServiceState state);

struct Metrics {
  // Entropy actually shipped, total and per requested quality.
  std::atomic<std::uint64_t> bytes_served_total{0};
  std::atomic<std::uint64_t> bytes_served_raw{0};
  std::atomic<std::uint64_t> bytes_served_conditioned{0};
  std::atomic<std::uint64_t> bytes_served_drbg{0};

  // GET responses by outcome (exactly one bucket per response).
  std::atomic<std::uint64_t> responses_ok{0};
  std::atomic<std::uint64_t> responses_degraded{0};
  std::atomic<std::uint64_t> responses_exhausted{0};
  std::atomic<std::uint64_t> responses_rate_limited{0};
  std::atomic<std::uint64_t> responses_bad_request{0};
  std::atomic<std::uint64_t> responses_too_large{0};
  std::atomic<std::uint64_t> responses_busy{0};
  std::atomic<std::uint64_t> responses_shutting_down{0};

  std::atomic<std::uint64_t> stats_requests{0};
  std::atomic<std::uint64_t> cert_requests{0};
  std::atomic<std::uint64_t> protocol_errors{0};

  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_closed{0};
  std::atomic<std::uint64_t> connections_active{0};  // gauge

  /// Shard DRBGs keyed inside DEGRADED or re-keyed there after a pool
  /// quarantine, summed over shards (interval reseeds do not count).
  std::atomic<std::uint64_t> drbg_fallback_reseeds{0};

  // Event-loop internals (readiness-loop server core).
  std::atomic<std::uint64_t> epoll_wakeups{0};   ///< poller wait() returns
  std::atomic<std::uint64_t> writev_calls{0};    ///< batched sendmsg calls
  std::atomic<std::uint64_t> writev_frames{0};   ///< frames across those calls
  std::atomic<std::uint64_t> accept_retries{0};  ///< EINTR/ECONNABORTED/EPROTO
  std::atomic<std::uint64_t> accept_soft_errors{0};  ///< EMFILE-class backoff
  std::atomic<std::uint64_t> accept_fatal_errors{0};
  /// Connections closed because their bounded write queue overflowed
  /// (back-pressure: the peer stopped reading faster than we produce).
  std::atomic<std::uint64_t> write_queue_overflows{0};

  // Non-blocking pool hand-off (see the file comment for exact meaning).
  std::atomic<std::uint64_t> pool_parked_gets{0};       ///< GETs parked
  std::atomic<std::uint64_t> pool_doorbell_wakeups{0};  ///< doorbell rings

  // Subscription streaming (SUBSCRIBE/UNSUBSCRIBE).
  std::atomic<std::uint64_t> subscriptions_opened{0};
  std::atomic<std::uint64_t> subscriptions_closed{0};
  std::atomic<std::uint64_t> subscriptions_active{0};  // gauge
  std::atomic<std::uint64_t> subscribe_pushes{0};
  std::atomic<std::uint64_t> subscribe_push_bytes{0};
  std::atomic<std::uint64_t> subscribe_pushes_degraded{0};
  /// Pushes deferred whole (never split) by a token bucket or by write-
  /// queue back-pressure; each deferral is retried on a later loop pass.
  std::atomic<std::uint64_t> subscribe_deferred_rate{0};
  std::atomic<std::uint64_t> subscribe_deferred_backpressure{0};

  /// Attribute an Ok GET response's bytes to its quality bucket.
  void count_served(Quality quality, std::uint64_t n, bool degraded);
  /// Attribute a non-Ok GET response to its status bucket.
  void count_error(Status status);
};

/// Plaintext dump: one "key value" line per counter, plus the ladder state,
/// the active SIMD dispatch tier (`simd_tier`), the generator's noise mode
/// (`noise_mode`, from EntropyServerConfig::noise_mode_label) and the
/// pool-health snapshot.  With a cert snapshot, appends one live line
/// triple per producer (bits / pass / live min-entropy) so operators see
/// per-source health at a glance; the full breakdown lives behind the CERT
/// verb.  Counter values lead with a digit; `state`, `simd_tier` and
/// `noise_mode` carry text values (parsers must skip or special-case them).
std::string render_stats(const Metrics& metrics, ServiceState state,
                         const core::PoolHealthSnapshot& pool,
                         const core::PoolCertSnapshot* cert = nullptr,
                         const std::string& noise_mode_label = "exact");

/// Plaintext CERT dump: the full per-producer + merged streaming
/// certification snapshots, same "key value" line format as STATS.
/// Doubles are printed with max_digits10 precision so test oracles can
/// compare them bit-exactly after a stod round trip.
std::string render_cert(const core::PoolCertSnapshot& cert);

}  // namespace dhtrng::service
