#include "core/dhtrng_soa.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/chaotic_ring.h"
#include "core/coupling.h"
#include "core/dhtrng_soa_engine.h"
#include "core/hybrid_unit.h"
#include "core/ro.h"
#include "support/rng.h"
#include "support/simd_noise.h"

namespace dhtrng::core {

namespace {

constexpr std::uint64_t kEngineRngSeed = 0x3c6ef372fe94f82aULL; // SoA stream

/// Per-ring seed for ring slot k in {0..5} of the structure seeded `ss`
/// (0 = RO1a, 1 = RO2a, 2 = RO1b, 3 = RO2b, 4 = C1, 5 = C2): the seeds
/// the scalar object tree (CouplingStructure -> HybridUnit/ChaoticRing ->
/// PhaseRo) hands its rings, so lane l is the same physical instance as
/// core l of DhTrngArray{cores = 64}.
std::uint64_t ring_seed(std::uint64_t ss, int k) {
  switch (k) {
    case 0: return ss;
    case 1: return ss ^ kRo2SeedMix;
    case 2: return ss ^ kUnitBSeedMix;
    case 3: return ss ^ kUnitBSeedMix ^ kRo2SeedMix;
    case 4: return ss ^ kCentral1SeedMix;
    default: return ss ^ kCentral2SeedMix;
  }
}

void init_engine(soa::EngineState& st, const DhTrngSoAConfig& cfg,
                 double clock_mhz) {
  const DhTrngConfig& core = cfg.core;
  const noise::PvtScaling scale = core.device.scaling(core.pvt);
  const CouplingStructureParams params =
      tuned_coupling_params(core.device, core.pvt, core.noise_scale);
  st.coupling_enabled = core.coupling;
  st.feedback_enabled = core.feedback;
  st.dt_ps = 1e6 / clock_mhz;

  // Ring slot k -> phase-model parameters (identical for both structures).
  const PhaseRoParams ring_params[6] = {
      params.unit_a.ro1,
      params.unit_a.ro2,
      params.unit_b.ro1,
      params.unit_b.ro2,
      central_ring_phase_params(params.central_1),
      central_ring_phase_params(params.central_2),
  };
  const ChaoticRingParams* central_params[2] = {&params.central_1,
                                                &params.central_2};
  // Supply coupling is a pure function of the parameters; probe one
  // PhaseRo per slot rather than duplicating the derivation formula.
  double slot_coupling[6];
  for (int k = 0; k < 6; ++k) {
    slot_coupling[k] = PhaseRo(ring_params[k], 0).shared_coupling();
  }

  const double sqrt_dt = std::sqrt(st.dt_ps);
  for (int r = 0; r < soa::kRings; ++r) {
    const int k = r % 6;
    const PhaseRoParams& rp = ring_params[k];
    // Chaos gain amplifies the central rings' own white jitter whenever the
    // coupling strategy is on (ChaoticRing::advance's extra_jitter).
    const double gain = (k >= 4 && st.coupling_enabled)
                            ? central_params[k - 4]->chaos_gain
                            : 1.0;
    st.white_sigma[r] =
        rp.kappa_ps_per_sqrt_ps * sqrt_dt * scale.white_jitter * gain;
    st.flick_gain[r] =
        rp.flicker_sigma_ps / std::sqrt(12.0) * scale.correlated_noise;
    st.shared_gain[r] = slot_coupling[k] * scale.correlated_noise;
    st.mod_gain[r] =
        k >= 4 ? central_params[k - 4]->mode_mod_depth * st.dt_ps * 0.5 : 0.0;
  }

  // Per-lane structural mismatch: DhTrngArray{cores = 64}'s constructor
  // draws, lane by lane (same SplitMix64 lane seeds).
  support::SplitMix64 seeder(core.seed);
  for (int l = 0; l < soa::kLanes; ++l) {
    const std::uint64_t lane_seed = seeder.next();
    st.rng.seed_lane(static_cast<std::size_t>(l),
                     lane_seed ^ kEngineRngSeed);
    for (int s = 0; s < 2; ++s) {
      const std::uint64_t ss =
          s == 0 ? lane_seed : lane_seed ^ kStructureBSeedMix;
      for (int k = 0; k < 6; ++k) {
        const int r = s * 6 + k;
        support::Xoshiro256 ring_rng(ring_seed(ss, k));
        const RingStructure rs =
            draw_ring_structure(ring_params[k], ring_rng);
        const double p_eff = rs.base_period_ps * scale.delay;
        st.period[r][l] = p_eff;
        st.inv_period[r][l] = 1.0 / p_eff;
        st.duty[r][l] = rs.duty;
        st.initial_phase[r][l] = rs.initial_phase;
        st.phase[r][l] = rs.initial_phase;
      }
      for (int c = 0; c < 2; ++c) {
        st.fb_inject[s][c][l] = central_params[c]->xor_delay_ps *
                                st.inv_period[s * 6 + 4 + c][l];
      }
    }
  }

  // Hybrid-unit constants.  The aperture sigma is the flip-flop's thermal
  // window, narrowed by the stress knob (see DhTrng::next_bit_fast).
  const double aperture =
      core.device.ff_aperture_sigma_ps * std::min(core.noise_scale, 1.0);
  const HybridUnitParams* unit_params[2] = {&params.unit_a, &params.unit_b};
  for (int u = 0; u < soa::kUnits; ++u) {
    const int s = u / 2;
    const int j = u % 2;
    const HybridUnitParams& up = *unit_params[j];
    const int r1 = s * 6 + j * 2;
    const int r2 = r1 + 1;
    st.sigma_q1[u] = std::max(aperture, up.ro1.edge_width_ps);
    st.sigma_q2[u] =
        std::max(aperture, up.ro2.edge_width_ps * up.pulse_smoothing);
    st.w_full[u] =
        up.ro2.kappa_ps_per_sqrt_ps * sqrt_dt * scale.white_jitter;
    for (int l = 0; l < soa::kLanes; ++l) {
      const double osc_fraction = 1.0 - st.duty[r1][l];
      st.dt_osc[u][l] = st.dt_ps * osc_fraction;
      st.w_osc[u][l] = up.ro2.kappa_ps_per_sqrt_ps *
                       std::sqrt(st.dt_osc[u][l]) * scale.white_jitter;
      const double edge_frac =
          up.ro2.edge_width_ps * up.pulse_smoothing / st.period[r2][l];
      st.p_sub[u][l] =
          std::min(up.hold_capture_prob + 2.0 * edge_frac, 0.95);
    }
  }

  // Chip-wide shared supply AR(1), one independent chip per lane.
  const double shared_sigma = chip_supply_sigma_ps(core.device);
  st.shared_inn_sigma =
      std::sqrt(1.0 - st.shared_rho * st.shared_rho) * shared_sigma;
  const double corr = scale.correlated_noise;
  st.data_kick = core.data_noise_ps * 0.5 * corr * corr * corr * corr;

  // Flicker lattice start: fill every octave row with unit normals from the
  // engine stream via the fused gaussian fill (the scalar FlickerNoise
  // constructor draws its rows the same way, just from per-ring
  // generators).
  {
    const std::size_t n = static_cast<std::size_t>(
        soa::kRings * soa::kOctaves * soa::kLanes);
    std::vector<double> g0(n);
    st.rng.gaussian_fill(g0.data(), n);
    std::size_t at = 0;
    for (int r = 0; r < soa::kRings; ++r) {
      for (int o = 0; o < soa::kOctaves; ++o) {
        for (int l = 0; l < soa::kLanes; ++l) {
          st.flick_row[r][o][l] = g0[at++];
        }
      }
    }
  }
  for (int r = 0; r < soa::kRings; ++r) {
    for (int l = 0; l < soa::kLanes; ++l) {
      double sum = 0.0;
      for (int o = 0; o < soa::kOctaves; ++o) sum += st.flick_row[r][o][l];
      st.flick_sum[r][l] = sum;
      st.last_flick[r][l] = sum * st.flick_gain[r];
    }
  }
}

}  // namespace

DhTrngSoA::DhTrngSoA(DhTrngSoAConfig config) : config_(config) {
  if (config_.noise_mode == noise::NoiseMode::Exact) {
    throw std::invalid_argument(
        "DhTrngSoA: noise_mode Exact is not served; use "
        "DhTrngArray{cores = kSoaLanes} for 64 exact lanes");
  }
  config_.core.backend = Backend::Fast;  // phase-domain lanes only
  st_ = std::make_unique<soa::EngineState>();
  const double clock =
      config_.core.clock_mhz > 0.0
          ? config_.core.clock_mhz
          : config_.core.device.max_clock_mhz(2, config_.core.pvt);
  init_engine(*st_, config_, clock);
}

DhTrngSoA::~DhTrngSoA() = default;
DhTrngSoA::DhTrngSoA(DhTrngSoA&&) noexcept = default;
DhTrngSoA& DhTrngSoA::operator=(DhTrngSoA&&) noexcept = default;

std::string DhTrngSoA::name() const {
  std::string n = "DH-TRNG SoA x64";
  if (!config_.core.coupling) n += "/no-coupling";
  if (!config_.core.feedback) n += "/no-feedback";
  return n;
}

std::uint64_t DhTrngSoA::next_word() { return soa::step(*st_); }

void DhTrngSoA::generate_words(std::uint64_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = soa::step(*st_);
}

bool DhTrngSoA::next_bit() {
  if (word_pos_ >= kSoaLanes) {
    word_ = next_word();
    word_pos_ = 0;
  }
  return ((word_ >> word_pos_++) & 1u) != 0;
}

void DhTrngSoA::generate(support::BitStream& out, std::size_t nbits) {
  out.reserve(out.size() + nbits);
  std::size_t left = nbits;
  // Drain the buffered word first so generate() and next_bit() interleave
  // into one consistent stream.
  while (left > 0 && word_pos_ < kSoaLanes) {
    out.push_back(next_bit());
    --left;
  }
  while (left >= kSoaLanes) {
    out.append_word(next_word(), kSoaLanes);
    left -= kSoaLanes;
  }
  while (left > 0) {
    out.push_back(next_bit());
    --left;
  }
}

void DhTrngSoA::restart() {
  // Circuit state back to power-on values; the noise processes (flicker
  // lattice, supply AR(1), RNG streams) keep evolving — the semantics of
  // the paper's restart test, matching the scalar fast backend.
  soa::EngineState& st = *st_;
  std::memcpy(st.phase, st.initial_phase, sizeof(st.phase));
  for (int u = 0; u < soa::kUnits; ++u) {
    st.frozen[u] = st.frozen_meta[u] = st.frozen_level[u] = 0;
  }
  for (int s = 0; s < 2; ++s) st.last_fb[s][0] = st.last_fb[s][1] = 0;
  st.out_reg = 0;
  word_ = 0;
  word_pos_ = kSoaLanes;
}

sim::ResourceCounts DhTrngSoA::resources() const {
  // 64x one instance: 23 LUTs, 4 MUXs, 14 DFFs (DhTrng::resources()).
  return {23 * kSoaLanes, 4 * kSoaLanes, 14 * kSoaLanes};
}

double DhTrngSoA::clock_mhz() const { return 1e6 / st_->dt_ps; }

double DhTrngSoA::throughput_mbps() const {
  return clock_mhz() * static_cast<double>(kSoaLanes);
}

fpga::ActivityEstimate DhTrngSoA::activity() const {
  // One shared clock network, 64 instances of logic — same accounting as
  // DhTrngArray.
  fpga::ActivityEstimate one = DhTrng(config_.core).activity();
  one.flip_flops *= kSoaLanes;
  one.logic_toggle_ghz *= static_cast<double>(kSoaLanes);
  return one;
}

double DhTrngSoA::metastable_fraction() const {
  if (st_->bits_emitted == 0) return 0.0;
  return static_cast<double>(st_->metastable_bits) /
         static_cast<double>(st_->bits_emitted);
}

}  // namespace dhtrng::core
