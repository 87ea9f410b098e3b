#include "core/zoo/neo_trng.h"

#include <bit>
#include <string>
#include <utility>

#include "support/rng.h"

namespace dhtrng::core {

namespace {

// Post-processing inventory, accounted in area/power but not elaborated as
// simulator gates (see NeoTrngNetlist doc): von Neumann pair register
// (2 FF) + phase toggle (1 FF) + valid decode (1 LUT); LFSR state (8 FF) +
// feedback XOR (1 LUT); 6-bit fold counter (6 FF, 2 LUTs of increment
// logic) + byte-ready strobe (1 LUT).
constexpr std::size_t kPostLuts = 5;
constexpr std::size_t kPostDffs = 17;

std::size_t cell_chain_length(const NeoTrngConfig& cfg, int cell) {
  return static_cast<std::size_t>(cfg.chain_base + cfg.chain_step * cell);
}

std::vector<fpga::PackGroup> neo_pack_groups(int cells, int chain_base,
                                             int chain_step) {
  std::vector<fpga::PackGroup> groups;
  for (int i = 0; i < cells; ++i) {
    const std::size_t len =
        static_cast<std::size_t>(chain_base + chain_step * i);
    // Chain: enable NAND + (len-1) inverters + len decoupling latches
    // (latches occupy LUT/latch sites) = 2*len LUT sites; 2 sync DFFs.
    groups.push_back(fpga::PackGroup{"neo-cell" + std::to_string(i), 2 * len,
                                     0, 2});
  }
  groups.push_back(fpga::PackGroup{"neo-combine", 1, 0, 1});
  groups.push_back(fpga::PackGroup{"neo-postproc", kPostLuts, 0, kPostDffs});
  return groups;
}

}  // namespace

support::BitStream neo_von_neumann(const support::BitStream& raw,
                                   VonNeumannStats* stats) {
  support::BitStream out;
  VonNeumannStats local;
  for (std::size_t i = 0; i + 1 < raw.size(); i += 2) {
    const bool first = raw[i];
    const bool second = raw[i + 1];
    ++local.pairs;
    if (first != second) {
      ++local.accepted;
      out.push_back(second);  // 01 -> 1 (rising edge), 10 -> 0 (falling)
    }
  }
  if (stats != nullptr) *stats = local;
  return out;
}

std::optional<std::uint8_t> NeoLfsrCombiner::shift_in(bool bit) {
  const bool feedback =
      (std::popcount(static_cast<unsigned>(state_ & kTaps)) & 1) != 0;
  state_ = static_cast<std::uint8_t>((state_ << 1) |
                                     ((feedback != bit) ? 1u : 0u));
  if (++fed_ < kBitsPerByte) return std::nullopt;
  fed_ = 0;
  return state_;
}

NeoTrngNetlist build_neo_trng_netlist(const fpga::DeviceModel& device,
                                      double clock_mhz, int cells,
                                      int chain_base, int chain_step) {
  NeoTrngNetlist n;
  sim::Circuit& c = n.circuit;

  const sim::NetId en = c.add_net("en");
  c.set_initial(en, true);
  n.clock_net = c.add_net("clk");
  c.add_clock(n.clock_net, 1e6 / clock_mhz);

  const double element_delay =
      device.lut_delay_ps + 0.35 * device.net_delay_ps;
  const sim::DffTiming ff = device.dff_timing();

  std::vector<sim::NetId> synced;
  for (int i = 0; i < cells; ++i) {
    const std::string prefix = "cell" + std::to_string(i);
    const int len = chain_base + chain_step * i;
    // +-1.3% per-cell element mismatch, deterministic in the cell index —
    // keeps nominally related chain frequencies from locking in the
    // (noiseless-mean) simulator the way real process spread would.
    const double skew = 1.0 + 0.013 * ((i % 5) - 2);
    // Inverting chain with a decoupling latch after every stage: NAND(en)
    // then alternating latch (BUF) / inverter elements.  `len` counts the
    // inverting elements, so the loop inverts iff len is odd.
    sim::NetId prev = c.add_net(prefix + "_n0");
    const sim::NetId first = prev;
    const sim::NetId ring = c.add_net(prefix + "_r");
    for (int s = 1; s < 2 * len; ++s) {
      const sim::NetId next =
          s == 2 * len - 1 ? ring : c.add_net(prefix + "_n" + std::to_string(s));
      // Odd positions are the latches (delay-equivalent BUFs), even
      // positions the inverters.
      c.add_gate(s % 2 == 1 ? sim::GateKind::Buf : sim::GateKind::Inv,
                 {prev}, next, element_delay * skew);
      prev = next;
    }
    c.add_gate(sim::GateKind::Nand, {en, ring}, first, element_delay * skew);

    // Two-stage synchronizer into the sampling clock domain.
    const sim::NetId s0 = c.add_net(prefix + "_s0");
    const sim::NetId s1 = c.add_net(prefix + "_s1");
    n.sync_dffs.push_back(c.add_dff(n.clock_net, ring, s0, ff));
    n.sync_dffs.push_back(c.add_dff(n.clock_net, s0, s1, ff));
    synced.push_back(s1);
  }

  // XOR combine (cells <= 6 fits one LUT6) and raw-bit register.
  const double tree_delay = device.lut_delay_ps + device.net_delay_ps;
  const sim::NetId xnet = c.add_net("xcomb");
  c.add_gate(sim::GateKind::Xor, synced, xnet, tree_delay);
  n.out_net = c.add_net("raw");
  n.out_dff = c.add_dff(n.clock_net, xnet, n.out_net, ff);

  n.pack_groups = neo_pack_groups(cells, chain_base, chain_step);
  return n;
}

NeoTrng::NeoTrng(NeoTrngConfig config)
    : config_(config),
      dt_ps_(1e6 / config.clock_mhz),
      scale_(config.device.scaling(config.pvt)),
      shared_noise_(chip_supply_sigma_ps(config.device),
                    config.seed ^ 0x5eedfacecafe1234ULL),
      meta_rng_(config.seed ^ 0x0f0f0f0f0f0f0f0fULL) {
  if (config_.backend == Backend::Fast) {
    support::SplitMix64 seeder(config_.seed);
    cells_.reserve(static_cast<std::size_t>(config_.cells));
    for (int i = 0; i < config_.cells; ++i) {
      PhaseRoParams p = fabric_ro_params(
          config_.device, static_cast<int>(cell_chain_length(config_, i)));
      // Each inverting stage carries its decoupling latch, so one "stage"
      // of the phase model is two fabric elements deep — matches the
      // gate-level chain period of 2*len*(2*element_delay).
      p.stage_delay_ps *= 2.0;
      // The latches decouple the chain from the shared supply: the jitter
      // each stage accumulates is re-timed locally instead of riding the
      // rail — neoTRNG's design argument, modeled as near-zero coupling.
      p.shared_coupling = 0.05;
      cells_.emplace_back(p, seeder.next());
    }
  } else {
    NeoTrngNetlist n = build_neo_trng_netlist(
        config_.device, config_.clock_mhz, config_.cells, config_.chain_base,
        config_.chain_step);
    gate_.emplace(std::move(n.circuit), n.out_dff, dt_ps_, config_.device,
                  scale_, config_.noise_mode, config_.seed);
  }
}

std::string NeoTrng::name() const {
  return "neoTRNG(" + std::to_string(config_.cells) + "x" +
         std::to_string(config_.chain_base) + "+" +
         std::to_string(config_.chain_step) + ")" +
         (config_.raw ? "/raw" : "");
}

bool NeoTrng::raw_bit() {
  if (gate_) return gate_->next_bit();
  const double shared = shared_noise_.step();
  bool out = false;
  for (PhaseRo& cell : cells_) {
    cell.advance(dt_ps_, shared, scale_);
    // Synchronizer aperture (Eq. 2) on samples landing near a transition.
    out ^= aperture_sample(cell.level(), cell.edge_distance_ps(scale_),
                           config_.device.ff_aperture_sigma_ps, meta_rng_);
  }
  return out;
}

bool NeoTrng::next_bit() {
  if (config_.raw) return raw_bit();
  while (byte_bits_left_ == 0) {
    // Fill the von Neumann pair, then run acceptance and the combiner.
    const bool sample = raw_bit();
    if (!have_first_) {
      pair_first_ = sample;
      have_first_ = true;
      continue;
    }
    have_first_ = false;
    ++vn_stats_.pairs;
    if (pair_first_ == sample) continue;
    ++vn_stats_.accepted;
    if (const auto byte = combiner_.shift_in(sample)) {
      byte_ = *byte;
      byte_bits_left_ = 8;
    }
  }
  --byte_bits_left_;
  return ((byte_ >> byte_bits_left_) & 1u) != 0;  // MSB first
}

void NeoTrng::restart() {
  if (gate_) {
    gate_->restart();
  } else {
    for (PhaseRo& cell : cells_) cell.reset();
  }
  // The extractor and combiner registers reset with the fabric.
  vn_stats_ = {};
  combiner_.reset();
  have_first_ = false;
  byte_bits_left_ = 0;
}

sim::ResourceCounts NeoTrng::resources() const {
  if (gate_) {
    sim::ResourceCounts rc = gate_->circuit().resources();
    rc.luts += kPostLuts;
    rc.dffs += kPostDffs;
    return rc;
  }
  sim::ResourceCounts rc;
  for (int i = 0; i < config_.cells; ++i) {
    rc.luts += 2 * cell_chain_length(config_, i);
  }
  rc.luts += 1 + kPostLuts;  // XOR combine + post-processing
  rc.dffs = 2 * static_cast<std::size_t>(config_.cells) + 1 + kPostDffs;
  return rc;
}

fpga::SliceReport NeoTrng::slice_report() const {
  return fpga::SlicePacker{}.pack(neo_pack_groups(
      config_.cells, config_.chain_base, config_.chain_step));
}

fpga::ActivityEstimate NeoTrng::activity() const {
  fpga::ActivityEstimate a;
  a.clock_mhz = config_.clock_mhz;
  a.flip_flops = 2 * static_cast<std::size_t>(config_.cells) + 1 + kPostDffs;
  double total = 0.0;
  for (int i = 0; i < config_.cells; ++i) {
    // 2*len fabric elements toggling at twice the chain frequency.
    const double len = static_cast<double>(cell_chain_length(config_, i));
    const double period_ps =
        2.0 * len * 2.0 *
        (config_.device.lut_delay_ps + 0.35 * config_.device.net_delay_ps) *
        scale_.delay;
    total += 2.0 * 2.0 * len * 1e3 / period_ps;
  }
  // Synchronizers, combiner and post-processing toggle at ~clock/2.
  total += static_cast<double>(a.flip_flops + 2) * config_.clock_mhz * 0.5e-3;
  a.logic_toggle_ghz = total;
  return a;
}

}  // namespace dhtrng::core
