#include "core/zoo/klein_trng.h"

#include <string>
#include <utility>

#include "core/netlist.h"
#include "support/rng.h"

namespace dhtrng::core {

namespace {

int ring_length(int r) { return kKleinRingLengths[r % 4]; }

// +-1.3% element mismatch, deterministic in the ring index (same role as
// the XorRo netlist's skew: keep equal-length rings from locking in the
// noiseless-mean simulator).
double ring_skew(int r) { return 1.0 + 0.013 * ((r % 5) - 2); }

std::vector<fpga::PackGroup> klein_pack_groups(int rings) {
  std::size_t ring_luts = 0;
  for (int r = 0; r < rings; ++r) {
    ring_luts += static_cast<std::size_t>(ring_length(r));
  }
  return {
      fpga::PackGroup{"klein-rings", ring_luts, 0, 0},
      fpga::PackGroup{"klein-sampler",
                      xor_lut6_tree_luts(static_cast<std::size_t>(rings)), 0,
                      static_cast<std::size_t>(rings) + 1},
      // XOR fold: accumulator LUT + folded-bit register + phase toggle.
      fpga::PackGroup{"klein-fold", 1, 0, 2},
  };
}

}  // namespace

KleinTrngNetlist build_klein_trng_netlist(const fpga::DeviceModel& device,
                                          double clock_mhz, int rings) {
  KleinTrngNetlist n;
  sim::Circuit& c = n.circuit;

  const sim::NetId en = c.add_net("en");
  c.set_initial(en, true);
  n.clock_net = c.add_net("clk");
  c.add_clock(n.clock_net, 1e6 / clock_mhz);

  const double element_delay =
      device.lut_delay_ps + 0.35 * device.net_delay_ps;
  const sim::DffTiming ff = device.dff_timing();

  std::vector<sim::NetId> q;
  for (int r = 0; r < rings; ++r) {
    const sim::NetId ring = build_ring_oscillator(
        c, "ro" + std::to_string(r), ring_length(r), en,
        element_delay * ring_skew(r));
    const sim::NetId qn =
        c.add_net(std::string("q").append(std::to_string(r)));
    n.sampler_dffs.push_back(c.add_dff(n.clock_net, ring, qn, ff));
    q.push_back(qn);
  }

  const sim::NetId root = build_xor_lut6_tree(
      c, std::move(q), device.lut_delay_ps + 0.3 * device.net_delay_ps);
  n.out_net = c.add_net("raw");
  n.out_dff = c.add_dff(n.clock_net, root, n.out_net, ff);
  n.pack_groups = klein_pack_groups(rings);
  return n;
}

KleinTrng::KleinTrng(KleinTrngConfig config)
    : config_(config),
      dt_ps_(1e6 / config.clock_mhz),
      scale_(config.device.scaling(config.pvt)),
      shared_noise_(chip_supply_sigma_ps(config.device),
                    config.seed ^ 0x9e3779b97f4a7c15ULL),
      meta_rng_(config.seed ^ 0x0f0f0f0f0f0f0f0fULL) {
  if (config_.backend == Backend::Fast) {
    support::SplitMix64 seeder(config_.seed);
    rings_.reserve(static_cast<std::size_t>(config_.rings));
    for (int r = 0; r < config_.rings; ++r) {
      PhaseRoParams p = fabric_ro_params(config_.device, ring_length(r));
      p.stage_delay_ps *= ring_skew(r);
      p.period_tolerance = 0.04;
      rings_.emplace_back(p, seeder.next());
    }
  } else {
    KleinTrngNetlist n = build_klein_trng_netlist(
        config_.device, config_.clock_mhz, config_.rings);
    gate_.emplace(std::move(n.circuit), n.out_dff, dt_ps_, config_.device,
                  scale_, config_.noise_mode, config_.seed);
  }
}

std::string KleinTrng::name() const {
  std::string n = "Klein-RO(x" + std::to_string(config_.rings) + ")";
  if (!config_.raw && config_.fold > 1) {
    n += "/fold" + std::to_string(config_.fold);
  }
  return n;
}

bool KleinTrng::raw_bit() {
  if (gate_) return gate_->next_bit();
  const double shared = shared_noise_.step();
  bool out = false;
  for (PhaseRo& ring : rings_) {
    ring.advance(dt_ps_, shared, scale_);
    // Sampler-DFF aperture (Eq. 2) near a ring transition.
    out ^= aperture_sample(ring.level(), ring.edge_distance_ps(scale_),
                           config_.device.ff_aperture_sigma_ps, meta_rng_);
  }
  return out;
}

bool KleinTrng::next_bit() {
  if (config_.raw) return raw_bit();
  bool out = false;
  for (int i = 0; i < config_.fold; ++i) out ^= raw_bit();
  return out;
}

void KleinTrng::restart() {
  if (gate_) {
    gate_->restart();
  } else {
    for (PhaseRo& ring : rings_) ring.reset();
  }
}

sim::ResourceCounts KleinTrng::resources() const {
  sim::ResourceCounts rc;
  for (const fpga::PackGroup& g : klein_pack_groups(config_.rings)) {
    rc.luts += g.luts;
    rc.muxes += g.muxes;
    rc.dffs += g.dffs;
  }
  return rc;
}

fpga::SliceReport KleinTrng::slice_report() const {
  return fpga::SlicePacker{}.pack(klein_pack_groups(config_.rings));
}

fpga::ActivityEstimate KleinTrng::activity() const {
  fpga::ActivityEstimate a;
  a.clock_mhz = config_.clock_mhz;
  a.flip_flops = static_cast<std::size_t>(config_.rings) + 3;
  double total = 0.0;
  for (int r = 0; r < config_.rings; ++r) {
    const double len = static_cast<double>(ring_length(r));
    const double period_ps = 2.0 * len *
                             (config_.device.lut_delay_ps +
                              0.35 * config_.device.net_delay_ps) *
                             ring_skew(r) * scale_.delay;
    total += 2.0 * len * 1e3 / period_ps;
  }
  total += static_cast<double>(
               a.flip_flops +
               xor_lut6_tree_luts(static_cast<std::size_t>(config_.rings))) *
           config_.clock_mhz * 0.5e-3;
  a.logic_toggle_ghz = total;
  return a;
}

}  // namespace dhtrng::core
