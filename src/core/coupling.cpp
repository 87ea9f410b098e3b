#include "core/coupling.h"

#include "support/rng.h"

namespace dhtrng::core {

CouplingStructureParams default_coupling_params() {
  CouplingStructureParams p;
  p.unit_a = default_hybrid_params();
  p.unit_b = default_hybrid_params();
  // Unit B's rings are sized slightly differently so the two units are
  // frequency-diverse (mirrors the reversed insertion of Fig. 4a).
  p.unit_b.ro1.stage_delay_ps = 450.0;
  p.unit_b.ro2.stage_delay_ps = 310.0;
  return p;
}

CouplingStructure::CouplingStructure(const CouplingStructureParams& params,
                                     std::uint64_t seed)
    : unit_a_(params.unit_a, seed),
      unit_b_(params.unit_b, seed ^ kUnitBSeedMix),
      central_1_(params.central_1, seed ^ kCentral1SeedMix),
      central_2_(params.central_2, seed ^ kCentral2SeedMix) {}

void CouplingStructure::reset() {
  unit_a_.reset();
  unit_b_.reset();
  central_1_.reset();
  central_2_.reset();
}

CouplingSample CouplingStructure::sample(double dt_ps, bool feedback_bit,
                                         bool coupling_enabled,
                                         bool feedback_enabled,
                                         double shared_noise_ps,
                                         const noise::PvtScaling& scale,
                                         double aperture_sigma_ps) {
  CouplingSample s;
  const HybridSample a =
      unit_a_.sample(dt_ps, shared_noise_ps, scale, aperture_sigma_ps);
  const HybridSample b =
      unit_b_.sample(dt_ps, shared_noise_ps, scale, aperture_sigma_ps);

  // Central ring 1 sits between RO1a and RO1b; central ring 2 between RO2a
  // and RO2b (the nested/reversed insertion).
  central_1_.advance(dt_ps, unit_a_.ro1().phase(), unit_b_.ro1().phase(),
                     feedback_bit, coupling_enabled, feedback_enabled,
                     shared_noise_ps, scale);
  central_2_.advance(dt_ps, unit_a_.ro2().phase(), unit_b_.ro2().phase(),
                     feedback_bit, coupling_enabled, feedback_enabled,
                     shared_noise_ps, scale);

  s.bits = {a.q1, a.q2, b.q1, b.q2, central_1_.level(), central_2_.level()};
  s.any_metastable = a.q2_metastable || b.q2_metastable;
  return s;
}

}  // namespace dhtrng::core
