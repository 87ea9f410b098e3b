// Deployment pipeline around a raw TRNG: startup testing, continuous
// health monitoring (SP 800-90B 4.4) and optional conditioning — the
// envelope a DH-TRNG would ship inside when used as a root of trust.
//
//   raw TRNG -> [startup test] -> [RCT + APT online] -> [conditioner] -> out
//
// The paper's design needs no conditioning to pass the statistical suites;
// the pipeline therefore defaults to Conditioning::None and exists so that
// (a) deployments get the mandatory health tests, and (b) the cost of
// conditioning that *other* designs need is measurable (see
// PostProcessStats and tests/core/test_conditioned_source.cpp).
#pragma once

#include <cstddef>
#include <functional>
#include <stdexcept>

#include "core/postprocess.h"
#include "core/trng.h"
#include "stats/health.h"

namespace dhtrng::core {

enum class Conditioning { None, VonNeumann, Xor4, Sha256 };

struct ConditionedSourceConfig {
  /// Claimed per-bit min-entropy of the raw source (drives the health-test
  /// cutoffs and the SHA-256 input block size).
  double claimed_min_entropy = 0.9;
  Conditioning conditioning = Conditioning::None;
  /// Bits consumed per internal refill chunk.
  std::size_t chunk_bits = 4096;
  /// Startup: bits tested and discarded before the first output (AIS-31 /
  /// 90B both require a tested, discarded startup sequence).
  std::size_t startup_bits = 4096;
};

/// Thrown when the continuous health tests alarm: the consumer must stop
/// using the output and re-validate the source.
class EntropySourceFailure : public std::runtime_error {
 public:
  explicit EntropySourceFailure(const std::string& what)
      : std::runtime_error(what) {}
};

class ConditionedSource {
 public:
  /// The source keeps a reference to `raw`; it must outlive this object.
  ConditionedSource(TrngSource& raw, ConditionedSourceConfig config = {});

  /// Next conditioned output bit; throws EntropySourceFailure on a health
  /// alarm.
  bool next_bit();

  /// Fill a stream with `nbits` conditioned bits.
  support::BitStream generate(std::size_t nbits);

  /// Raw-to-output rate statistics so far.
  PostProcessStats stats() const { return stats_; }
  bool healthy() const { return monitor_.healthy(); }
  const stats::HealthMonitor& monitor() const { return monitor_; }

 private:
  void refill();

  TrngSource& raw_;
  ConditionedSourceConfig config_;
  stats::HealthMonitor monitor_;
  support::BitStream buffer_;
  std::size_t cursor_ = 0;
  PostProcessStats stats_;
};

}  // namespace dhtrng::core
