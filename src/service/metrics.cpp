#include "service/metrics.h"

#include <iomanip>
#include <limits>
#include <sstream>

#include "support/simd_noise.h"

namespace dhtrng::service {

namespace {

/// Emit every field of one streaming snapshot as "<prefix>_key value"
/// lines (shared between the merged and per-producer sections).
void render_snapshot_lines(std::ostream& out, const std::string& prefix,
                           const stats::streaming::Snapshot& s,
                           const stats::streaming::Thresholds& t) {
  out << prefix << "_bits " << s.bits << '\n'
      << prefix << "_ones " << s.ones << '\n'
      << prefix << "_pass " << (s.pass(t) ? 1 : 0) << '\n'
      << prefix << "_h_live " << s.live_min_entropy() << '\n'
      << prefix << "_frequency_p " << s.frequency_p << '\n'
      << prefix << "_block_frequency_p " << s.block_frequency_p << '\n'
      << prefix << "_runs_p " << s.runs_p << '\n'
      << prefix << "_cusum_fwd_p " << s.cusum_fwd_p << '\n'
      << prefix << "_cusum_bwd_p " << s.cusum_bwd_p << '\n'
      << prefix << "_mcv_h " << s.mcv_h << '\n'
      << prefix << "_markov_h " << s.markov_h << '\n'
      << prefix << "_windows " << s.windows << '\n'
      << prefix << "_window_mcv_h_last " << s.window_mcv_h_last << '\n'
      << prefix << "_window_markov_h_last " << s.window_markov_h_last << '\n'
      << prefix << "_window_mcv_h_min " << s.window_mcv_h_min << '\n'
      << prefix << "_window_markov_h_min " << s.window_markov_h_min << '\n';
}

}  // namespace

const char* service_state_name(ServiceState state) {
  switch (state) {
    case ServiceState::Healthy: return "HEALTHY";
    case ServiceState::Degraded: return "DEGRADED";
    case ServiceState::Exhausted: return "EXHAUSTED";
  }
  return "UNKNOWN";
}

void Metrics::count_served(Quality quality, std::uint64_t n, bool degraded) {
  bytes_served_total.fetch_add(n, std::memory_order_relaxed);
  switch (quality) {
    case Quality::Raw:
      bytes_served_raw.fetch_add(n, std::memory_order_relaxed);
      break;
    case Quality::Conditioned:
      bytes_served_conditioned.fetch_add(n, std::memory_order_relaxed);
      break;
    case Quality::Drbg:
      bytes_served_drbg.fetch_add(n, std::memory_order_relaxed);
      break;
  }
  if (degraded) {
    responses_degraded.fetch_add(1, std::memory_order_relaxed);
  } else {
    responses_ok.fetch_add(1, std::memory_order_relaxed);
  }
}

void Metrics::count_error(Status status) {
  switch (status) {
    case Status::Exhausted:
      responses_exhausted.fetch_add(1, std::memory_order_relaxed);
      break;
    case Status::RateLimited:
      responses_rate_limited.fetch_add(1, std::memory_order_relaxed);
      break;
    case Status::BadRequest:
      responses_bad_request.fetch_add(1, std::memory_order_relaxed);
      break;
    case Status::TooLarge:
      responses_too_large.fetch_add(1, std::memory_order_relaxed);
      break;
    case Status::Busy:
      responses_busy.fetch_add(1, std::memory_order_relaxed);
      break;
    case Status::ShuttingDown:
      responses_shutting_down.fetch_add(1, std::memory_order_relaxed);
      break;
    case Status::Ok:
      break;  // not an error; counted by count_served
  }
}

std::string render_stats(const Metrics& m, ServiceState state,
                         const core::PoolHealthSnapshot& pool,
                         const core::PoolCertSnapshot* cert,
                         const stats::streaming::Thresholds& thresholds,
                         const std::string& noise_mode_label) {
  const auto v = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  std::ostringstream out;
  out << "state " << service_state_name(state) << '\n'
      << "simd_tier "
      << support::simd::tier_name(support::simd::active_tier()) << '\n'
      << "noise_mode " << noise_mode_label << '\n'
      << "bytes_served_total " << v(m.bytes_served_total) << '\n'
      << "bytes_served_raw " << v(m.bytes_served_raw) << '\n'
      << "bytes_served_conditioned " << v(m.bytes_served_conditioned) << '\n'
      << "bytes_served_drbg " << v(m.bytes_served_drbg) << '\n'
      << "responses_ok " << v(m.responses_ok) << '\n'
      << "responses_degraded " << v(m.responses_degraded) << '\n'
      << "responses_exhausted " << v(m.responses_exhausted) << '\n'
      << "responses_rate_limited " << v(m.responses_rate_limited) << '\n'
      << "responses_bad_request " << v(m.responses_bad_request) << '\n'
      << "responses_too_large " << v(m.responses_too_large) << '\n'
      << "responses_busy " << v(m.responses_busy) << '\n'
      << "responses_shutting_down " << v(m.responses_shutting_down) << '\n'
      << "stats_requests " << v(m.stats_requests) << '\n'
      << "cert_requests " << v(m.cert_requests) << '\n'
      << "protocol_errors " << v(m.protocol_errors) << '\n'
      << "connections_accepted " << v(m.connections_accepted) << '\n'
      << "connections_closed " << v(m.connections_closed) << '\n'
      << "connections_active " << v(m.connections_active) << '\n'
      << "drbg_fallback_reseeds " << v(m.drbg_fallback_reseeds) << '\n'
      << "epoll_wakeups " << v(m.epoll_wakeups) << '\n'
      << "writev_calls " << v(m.writev_calls) << '\n'
      << "writev_frames " << v(m.writev_frames) << '\n'
      << "accept_retries " << v(m.accept_retries) << '\n'
      << "accept_soft_errors " << v(m.accept_soft_errors) << '\n'
      << "accept_fatal_errors " << v(m.accept_fatal_errors) << '\n'
      << "write_queue_overflows " << v(m.write_queue_overflows) << '\n'
      << "pool_parked_gets " << v(m.pool_parked_gets) << '\n'
      << "pool_doorbell_wakeups " << v(m.pool_doorbell_wakeups) << '\n'
      << "subscriptions_opened " << v(m.subscriptions_opened) << '\n'
      << "subscriptions_closed " << v(m.subscriptions_closed) << '\n'
      << "subscriptions_active " << v(m.subscriptions_active) << '\n'
      << "subscribe_pushes " << v(m.subscribe_pushes) << '\n'
      << "subscribe_push_bytes " << v(m.subscribe_push_bytes) << '\n'
      << "subscribe_pushes_degraded " << v(m.subscribe_pushes_degraded)
      << '\n'
      << "subscribe_deferred_rate " << v(m.subscribe_deferred_rate) << '\n'
      << "subscribe_deferred_backpressure "
      << v(m.subscribe_deferred_backpressure) << '\n'
      << "pool_producers " << pool.producers << '\n'
      << "pool_healthy " << pool.healthy << '\n'
      << "pool_retired " << pool.retired << '\n'
      << "pool_quarantines " << pool.quarantines << '\n'
      << "pool_reseeds " << pool.reseeds << '\n'
      << "pool_bytes_produced " << pool.bytes_produced << '\n'
      << "pool_exhausted " << (pool.exhausted ? 1 : 0) << '\n';
  if (cert != nullptr && cert->enabled) {
    out << std::setprecision(std::numeric_limits<double>::max_digits10);
    out << "cert_pass " << (cert->merged.pass(thresholds) ? 1 : 0) << '\n'
        << "cert_h_live " << cert->merged.live_min_entropy() << '\n';
    for (std::size_t i = 0; i < cert->producers.size(); ++i) {
      const auto& s = cert->producers[i];
      out << "pool_source_" << i << "_bits " << s.bits << '\n'
          << "pool_source_" << i << "_pass " << (s.pass(thresholds) ? 1 : 0)
          << '\n'
          << "pool_source_" << i << "_h_live " << s.live_min_entropy()
          << '\n';
    }
  }
  return out.str();
}

std::string render_cert(const core::PoolCertSnapshot& cert,
                        const stats::streaming::Thresholds& thresholds) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "cert_enabled " << (cert.enabled ? 1 : 0) << '\n'
      << "cert_sources " << cert.producers.size() << '\n'
      << "cert_block_len " << cert.tracker.block_len << '\n'
      << "cert_window_bits " << cert.tracker.window_bits << '\n'
      << "cert_alpha " << thresholds.alpha << '\n'
      << "cert_min_entropy " << thresholds.min_entropy << '\n';
  if (!cert.enabled) return out.str();
  render_snapshot_lines(out, "merged", cert.merged, thresholds);
  for (std::size_t i = 0; i < cert.producers.size(); ++i) {
    render_snapshot_lines(out, "source_" + std::to_string(i),
                          cert.producers[i], thresholds);
  }
  return out.str();
}

}  // namespace dhtrng::service
