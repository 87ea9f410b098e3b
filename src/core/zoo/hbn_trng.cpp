#include "core/zoo/hbn_trng.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/ro.h"
#include "support/rng.h"

namespace dhtrng::core {

namespace {

// +-6% node-delay heterogeneity, deterministic in the node index.  The
// spread is what keeps the autonomous network from settling into a
// periodic travelling-wave mode (Rosin et al. attribute the broadband
// dynamics to exactly this delay disorder).
double node_skew(int i) { return 1.0 + 0.02 * ((i % 7) - 3); }

bool is_xnor_node(int i, int nodes) { return i == 0 || i == nodes / 2; }

int tap_index(int t, int nodes, int taps) {
  // Offset by one so the XNOR bootstrap nodes themselves are not sampled.
  return (t * nodes / taps + 1) % nodes;
}

std::vector<fpga::PackGroup> hbn_pack_groups(int nodes, int taps) {
  return {
      fpga::PackGroup{"hbn-core", static_cast<std::size_t>(nodes), 0, 0},
      fpga::PackGroup{"hbn-sampler", 1, 0,
                      static_cast<std::size_t>(taps) + 1},
  };
}

}  // namespace

HbnTrngNetlist build_hbn_trng_netlist(const fpga::DeviceModel& device,
                                      double clock_mhz, int nodes,
                                      int taps) {
  HbnTrngNetlist n;
  sim::Circuit& c = n.circuit;

  n.clock_net = c.add_net("clk");
  c.add_clock(n.clock_net, 1e6 / clock_mhz);

  // Autonomous core: node i's gate reads its ring neighbours and drives
  // net n<i>.  All nets power up at 0; the two XNOR nodes then output 1,
  // which launches the transition fronts that the delay disorder breaks
  // into chaos.
  const double xor_delay = device.lut_delay_ps + 0.45 * device.net_delay_ps;
  std::vector<sim::NetId> node_nets;
  node_nets.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    node_nets.push_back(
        c.add_net(std::string("n").append(std::to_string(i))));
  }
  for (int i = 0; i < nodes; ++i) {
    const sim::NetId prev = node_nets[static_cast<std::size_t>(
        (i + nodes - 1) % nodes)];
    const sim::NetId next =
        node_nets[static_cast<std::size_t>((i + 1) % nodes)];
    c.add_gate(is_xnor_node(i, nodes) ? sim::GateKind::Xnor
                                      : sim::GateKind::Xor,
               {prev, next}, node_nets[static_cast<std::size_t>(i)],
               xor_delay * node_skew(i));
  }

  // Clocked boundary: sample `taps` spread nodes, XOR, register.
  const sim::DffTiming ff = device.dff_timing();
  std::vector<sim::NetId> q;
  for (int t = 0; t < taps; ++t) {
    const sim::NetId tapped =
        node_nets[static_cast<std::size_t>(tap_index(t, nodes, taps))];
    const sim::NetId qn =
        c.add_net(std::string("q").append(std::to_string(t)));
    n.tap_dffs.push_back(c.add_dff(n.clock_net, tapped, qn, ff));
    q.push_back(qn);
  }
  const double tree_delay = device.lut_delay_ps + 0.3 * device.net_delay_ps;
  const sim::NetId xnet = c.add_net("xtap");
  c.add_gate(sim::GateKind::Xor, q, xnet, tree_delay);
  n.out_net = c.add_net("out");
  n.out_dff = c.add_dff(n.clock_net, xnet, n.out_net, ff);

  n.pack_groups = hbn_pack_groups(nodes, taps);
  return n;
}

HbnTrng::HbnTrng(HbnTrngConfig config)
    : config_(config),
      clock_mhz_(config.clock_mhz > 0.0
                     ? config.clock_mhz
                     : std::min(config.device.max_clock_mhz(1, config.pvt),
                                config.device.pll_max_mhz)),
      dt_ps_(1e6 / clock_mhz_),
      scale_(config.device.scaling(config.pvt)),
      shared_noise_(chip_supply_sigma_ps(config.device),
                    config.seed ^ 0xb5297a4d3f84d5b5ULL),
      meta_rng_(config.seed ^ 0x0f0f0f0f0f0f0f0fULL) {
  if (config_.backend == Backend::Fast) {
    support::SplitMix64 seeder(config_.seed);
    nodes_.reserve(static_cast<std::size_t>(config_.nodes));
    for (int i = 0; i < config_.nodes; ++i) {
      ChaoticRingParams p;
      p.xor_delay_ps = (config_.device.lut_delay_ps +
                        0.45 * config_.device.net_delay_ps) *
                       node_skew(i);
      p.kappa_ps_per_sqrt_ps =
          0.035 * config_.device.gate_jitter.white_sigma_ps / 1.2;
      p.flicker_sigma_ps = 3.0;
      // A network node sees chaotic drive from both sides all the time —
      // stronger modulation than the DH-TRNG's edge-driven central rings.
      p.mode_mod_depth = 0.5;
      p.chaos_gain = 10.0;
      nodes_.emplace_back(p, seeder.next());
    }
  } else {
    HbnTrngNetlist n = build_hbn_trng_netlist(config_.device, clock_mhz_,
                                              config_.nodes, config_.taps);
    gate_.emplace(std::move(n.circuit), n.out_dff, dt_ps_, config_.device,
                  scale_, config_.noise_mode, config_.seed);
  }
}

std::string HbnTrng::name() const {
  return "HBN(" + std::to_string(config_.nodes) + "n/" +
         std::to_string(config_.taps) + "t)";
}

bool HbnTrng::next_bit() {
  return gate_ ? gate_->next_bit() : next_bit_fast();
}

bool HbnTrng::next_bit_fast() {
  const double shared = shared_noise_.step();
  // Snapshot all phases first: the network update is simultaneous (every
  // node reads its neighbours' pre-step state through its gate delay).
  std::vector<double> phases;
  phases.reserve(nodes_.size());
  for (const ChaoticRing& node : nodes_) phases.push_back(node.phase());
  const int nn = config_.nodes;
  for (int i = 0; i < nn; ++i) {
    nodes_[static_cast<std::size_t>(i)].advance(
        dt_ps_, phases[static_cast<std::size_t>((i + nn - 1) % nn)],
        phases[static_cast<std::size_t>((i + 1) % nn)],
        /*feedback_bit=*/false, /*coupling_enabled=*/true,
        /*feedback_enabled=*/false, shared, scale_);
  }
  bool out = false;
  for (int t = 0; t < config_.taps; ++t) {
    const ChaoticRing& node =
        nodes_[static_cast<std::size_t>(tap_index(t, nn, config_.taps))];
    // Tap-DFF aperture (Eq. 2) near a node transition.
    out ^= aperture_sample(node.level(), node.ring().edge_distance_ps(scale_),
                           config_.device.ff_aperture_sigma_ps, meta_rng_);
  }
  return out;
}

void HbnTrng::restart() {
  if (gate_) {
    gate_->restart();
  } else {
    for (ChaoticRing& node : nodes_) node.reset();
  }
}

sim::ResourceCounts HbnTrng::resources() const {
  sim::ResourceCounts rc;
  for (const fpga::PackGroup& g :
       hbn_pack_groups(config_.nodes, config_.taps)) {
    rc.luts += g.luts;
    rc.muxes += g.muxes;
    rc.dffs += g.dffs;
  }
  return rc;
}

fpga::SliceReport HbnTrng::slice_report() const {
  return fpga::SlicePacker{}.pack(hbn_pack_groups(config_.nodes, config_.taps));
}

fpga::ActivityEstimate HbnTrng::activity() const {
  fpga::ActivityEstimate a;
  a.clock_mhz = clock_mhz_;
  a.flip_flops = static_cast<std::size_t>(config_.taps) + 1;
  // Every node transitions at roughly the 2-XOR loop rate — the autonomous
  // core is the power story of this design (all nodes, all the time).
  const double loop_period_ps = 2.0 * 2.0 *
                                (config_.device.lut_delay_ps +
                                 0.45 * config_.device.net_delay_ps) *
                                scale_.delay;
  double total = static_cast<double>(config_.nodes) * 2.0 * 1e3 /
                 loop_period_ps;
  total += static_cast<double>(a.flip_flops + 1) * clock_mhz_ * 0.5e-3;
  a.logic_toggle_ghz = total;
  return a;
}

}  // namespace dhtrng::core
