// Ablation: the dynamic hybrid mechanism itself (Section 3.1).  Compares
// the hybrid entropy unit against (a) the same unit with the holding-region
// metastability disabled and (b) a plain 2-ring XOR with no MUX switching,
// at equal XOR fan-in — isolating how much of the entropy comes from the
// dynamic switching.
#include <cstdio>

#include "bench_util.h"
#include "core/hybrid_unit.h"
#include "stats/sp800_90b.h"
#include "support/bitstream.h"
#include "support/rng.h"

namespace {

using namespace dhtrng;

support::BitStream generate_units(const core::HybridUnitParams& params,
                                  int units, std::size_t nbits,
                                  std::uint64_t seed) {
  std::vector<core::HybridUnit> bank;
  support::SplitMix64 seeder(seed);
  for (int u = 0; u < units; ++u) bank.emplace_back(params, seeder.next());
  const noise::PvtScaling nominal{1.0, 1.0, 1.0};
  support::BitStream bs;
  bs.reserve(nbits);
  for (std::size_t i = 0; i < nbits; ++i) {
    bool out = false;
    for (auto& unit : bank) {
      out ^= unit.sample(10000.0, 0.0, nominal, 12.0).out;  // 100 MHz
    }
    bs.push_back(out);
  }
  return bs;
}

}  // namespace

int main(int argc, char** argv) {
  dhtrng::bench::accept_flags(argc, argv, {"bits", "units"});
  const auto bits = static_cast<std::size_t>(
      dhtrng::bench::flag(argc, argv, "bits", 300000));
  const auto units = static_cast<int>(dhtrng::bench::flag(argc, argv, "units", 4));

  dhtrng::bench::header("Ablation - dynamic hybrid mechanism",
                        "DH-TRNG paper, Section 3.1 (entropy unit design)");
  std::printf("config: %d XORed units, %zu bits each variant\n\n", units, bits);

  core::HybridUnitParams full = core::default_hybrid_params();

  core::HybridUnitParams no_hold = full;
  no_hold.hold_capture_prob = 0.0;  // holding region latches deterministically

  core::HybridUnitParams no_smoothing = full;
  no_smoothing.pulse_smoothing = 1.0;  // no pulse-widened edges

  core::HybridUnitParams static_unit = full;
  static_unit.hold_capture_prob = 0.0;
  static_unit.pulse_smoothing = 1.0;  // ~ plain two-ring XOR

  struct Variant {
    const char* name;
    const core::HybridUnitParams* params;
  } variants[] = {
      {"full hybrid unit", &full},
      {"no hold capture (tau=0)", &no_hold},
      {"no pulse smoothing", &no_smoothing},
      {"static 2-ring XOR", &static_unit},
  };

  std::printf("%-26s %10s %10s\n", "variant", "h-mcv", "h-markov");
  for (const auto& v : variants) {
    const auto stream = generate_units(*v.params, units, bits, 42);
    std::printf("%-26s %10.4f %10.4f\n", v.name,
                dhtrng::stats::sp800_90b::mcv(stream).h_min,
                dhtrng::stats::sp800_90b::markov(stream).h_min);
  }
  dhtrng::bench::note("the full unit should lead; removing the holding-region"
                      " metastability costs the most (paper Table 2 margin)");
  return 0;
}
