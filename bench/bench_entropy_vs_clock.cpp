// Extension experiment: per-bit min-entropy vs sampling clock — the
// throughput/entropy trade-off every jitter TRNG faces and the design
// space behind the paper's headline claim.
//
// A plain XOR-RO design loses per-sample jitter accumulation as the clock
// rises (sigma_acc ~ kappa*sqrt(T_s)); DH-TRNG's holding-region
// metastability injects entropy per *sample* regardless of T_s, which is
// what lets it run at the PLL limit (620 MHz) with no entropy cliff.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "core/baselines/xor_ro_trng.h"
#include "core/dhtrng.h"
#include "stats/sp800_90b.h"

namespace {

double h_min(const dhtrng::support::BitStream& bits) {
  using namespace dhtrng::stats::sp800_90b;
  double h = 1.0;
  h = std::min(h, mcv(bits).h_min);
  h = std::min(h, markov(bits).h_min);
  h = std::min(h, lag(bits).h_min);
  h = std::min(h, multi_mmc(bits).h_min);
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dhtrng;
  bench::accept_flags(argc, argv, {"bits"});
  const auto bits = static_cast<std::size_t>(bench::flag(argc, argv, "bits", 200000));
  const auto a7 = fpga::DeviceModel::artix7();

  bench::header("Extension - min-entropy vs sampling clock",
                "design space behind the paper's 620 MHz operating point");
  std::printf("config: %zu bits per cell, Artix-7\n\n", bits);

  std::printf("%10s %12s %14s\n", "clock", "DH-TRNG", "XOR-RO 9x12");
  for (double clock : {25.0, 50.0, 100.0, 200.0, 400.0, 620.0}) {
    core::DhTrng dh({.device = a7, .seed = 21, .clock_mhz = clock});
    core::XorRoTrng ro({.device = a7, .seed = 21, .stages = 9, .rings = 12,
                        .clock_mhz = clock});
    std::printf("%7.0fMHz %12.4f %14.4f\n", clock,
                h_min(dh.generate(bits)), h_min(ro.generate(bits)));
  }
  bench::note("DH-TRNG should stay flat to the PLL limit; the plain RO "
              "array softens as the clock starves jitter accumulation");
  return 0;
}
