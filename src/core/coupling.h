// Nested coupling structure (Section 3.2, Figure 4a).
//
// Two dynamic hybrid entropy units are reversely inserted into two 2-stage
// XOR rings, giving two central rings and four edge rings.  The six ring
// signals are each sampled by the multistage sampling array; the chaotic
// central rings amplify and mix the edge-ring phase noise.
#pragma once

#include <array>
#include <cstdint>

#include "core/chaotic_ring.h"
#include "core/hybrid_unit.h"
#include "noise/pvt.h"

namespace dhtrng::core {

struct CouplingStructureParams {
  HybridUnitParams unit_a;
  HybridUnitParams unit_b;
  ChaoticRingParams central_1;
  ChaoticRingParams central_2;
};

CouplingStructureParams default_coupling_params();

/// The six sampled ring bits of one structure, in sampling-array order:
/// {R1a, R2a, R1b, R2b, C1, C2}.
struct CouplingSample {
  std::array<bool, 6> bits{};
  bool any_metastable = false;
};

/// Seed mixes of a structure seeded `seed`: unit A takes `seed`, unit B
/// and the two central rings `seed` XOR these.
inline constexpr std::uint64_t kUnitBSeedMix = 0xbf58476d1ce4e5b9ULL;
inline constexpr std::uint64_t kCentral1SeedMix = 0x2545f4914f6cdd1dULL;
inline constexpr std::uint64_t kCentral2SeedMix = 0x9e3779b97f4a7c15ULL;

class CouplingStructure {
 public:
  CouplingStructure(const CouplingStructureParams& params, std::uint64_t seed);

  CouplingSample sample(double dt_ps, bool feedback_bit,
                        bool coupling_enabled, bool feedback_enabled,
                        double shared_noise_ps,
                        const noise::PvtScaling& scale,
                        double aperture_sigma_ps);

  void reset();

  HybridUnit& unit_a() { return unit_a_; }
  HybridUnit& unit_b() { return unit_b_; }

 private:
  HybridUnit unit_a_;
  HybridUnit unit_b_;
  ChaoticRing central_1_;
  ChaoticRing central_2_;
};

}  // namespace dhtrng::core
