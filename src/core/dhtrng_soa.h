// Bitsliced structure-of-arrays DH-TRNG backend: 64 independent instances
// advanced per 64-bit word — the lane-parallel trick the word-parallel
// statistical engine uses for analysis, applied to *generation*.
//
// Layout: every piece of per-instance state becomes a 64-wide array (one
// slot per lane) or one bit of a packed std::uint64_t word (boolean state:
// freeze flags, latched levels, the output register).  The twelve phase
// rings of one DH-TRNG (2 structures x {RO1a, RO2a, RO1b, RO2b, C1, C2})
// become twelve rows of 64 phase accumulators; one step advances all rows
// and emits one output word, bit l being lane l's bit for that clock cycle.
//
// All randomness comes from the dispatched SIMD kernels
// (support/simd_noise.h): a XoshiroSoA raw stream feeding batched
// Box-Muller normals, Abramowitz-Stegun normal CDFs for the flip-flop
// apertures, sin2pi for the chaotic-ring mode modulation, and packed-mask
// Bernoulli draws for the hold-capture and metastable coins.  Per-lane
// *structural* constants (period mismatch, duty error, power-on phase)
// replicate the constructor draws of DhTrngArray{cores = 64}'s cores, so
// lane l is the same physical instance as that array's core l; the *noise
// stream* is a different (batched, branch-free) one — statistically
// equivalent but NOT bit-compatible with the array, same contract as
// noise::NoiseMode::Fast in the event-driven simulator.  Deterministic per
// seed and bit-identical across dispatch tiers (scalar, AVX2, AVX-512,
// NEON; see dhtrng_soa_engine.h).  The exact-grade 64-lane stream is
// DhTrngArray{cores = 64}; this class only runs the bitsliced engine.
//
// This is the bulk-generation path: one EntropyPool producer block (4096
// bits) is exactly 64 steps, and trng_tool --backend=soa uses it for
// `generate`.  bench_gen_soa measures its throughput against the scalar
// array baseline and CI gates the speedup.
#pragma once

#include <cstdint>
#include <memory>

#include "core/dhtrng.h"
#include "core/trng.h"
#include "noise/jitter.h"

namespace dhtrng::core {

namespace soa {
struct EngineState;  // bitsliced state, defined in dhtrng_soa_engine.h
}  // namespace soa

/// Lane count of the bitsliced backend (one bit of a machine word each).
inline constexpr std::size_t kSoaLanes = 64;

struct DhTrngSoAConfig {
  /// Per-lane configuration; `seed` is the master seed, per-lane seeds are
  /// SplitMix64-derived from it exactly like DhTrngArray derives per-core
  /// seeds.  `backend` is ignored (the engine is phase-domain only).
  DhTrngConfig core;
  /// Only Fast is accepted; the constructor throws std::invalid_argument
  /// on Exact (run DhTrngArray{cores = kSoaLanes} for exact lanes).
  noise::NoiseMode noise_mode = noise::NoiseMode::Fast;
};

class DhTrngSoA final : public TrngSource {
 public:
  /// Throws std::invalid_argument if config.noise_mode is Exact.
  explicit DhTrngSoA(DhTrngSoAConfig config);
  ~DhTrngSoA() override;

  DhTrngSoA(DhTrngSoA&&) noexcept;
  DhTrngSoA& operator=(DhTrngSoA&&) noexcept;

  std::string name() const override;

  /// One step of all 64 lanes: bit l is lane l's output bit this cycle.
  std::uint64_t next_word();

  /// `n` consecutive steps into `out[0..n)`.
  void generate_words(std::uint64_t* out, std::size_t n);

  /// Bits in DhTrngArray round-robin order: bit i of the stream is lane
  /// (i mod 64)'s bit for cycle (i div 64) — served from a buffered word.
  bool next_bit() override;

  /// Word-at-a-time fast path with the same stream as repeated next_bit().
  void generate(support::BitStream& out, std::size_t nbits) override;
  using TrngSource::generate;  // keep the BitStream-returning convenience

  /// Power-cycle every lane: phases and registers return to power-on
  /// values, the noise processes keep evolving (RNG streams not rewound).
  void restart() override;

  sim::ResourceCounts resources() const override;  ///< 64x one instance
  double clock_mhz() const override;
  double throughput_mbps() const override;  ///< clock * 64 lanes
  fpga::ActivityEstimate activity() const override;

  /// Fraction of emitted bits during which at least one hybrid unit's RO2
  /// sample was metastable (health indicator, averaged over lanes).
  double metastable_fraction() const;

  const DhTrngSoAConfig& config() const { return config_; }

 private:
  DhTrngSoAConfig config_;
  std::unique_ptr<soa::EngineState> st_;  // large POD, kept on the heap

  // next_bit() buffer: the unread tail of the most recent word.
  std::uint64_t word_ = 0;
  unsigned word_pos_ = kSoaLanes;
};

}  // namespace dhtrng::core
