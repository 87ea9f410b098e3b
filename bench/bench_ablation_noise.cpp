// Ablation: noise-model knobs behind the Table 1 shape (DESIGN.md sec. 6).
// Sweeps the data-dependent supply kick and the per-instance period spread
// of the XOR-RO baseline and reports their effect on min-entropy at short
// and long ring orders — evidence for which mechanism limits which regime.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "core/baselines/xor_ro_trng.h"
#include "stats/sp800_90b.h"

namespace {

double h_overall(const dhtrng::support::BitStream& bits) {
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
  const auto bits = static_cast<std::size_t>(bench::flag(argc, argv, "bits", 150000));

  bench::header("Ablation - noise model mechanisms",
                "DESIGN.md section 6 (Table 1 calibration)");
  std::printf("config: 12 rings, 100 MHz, %zu bits per cell\n\n", bits);

  std::printf("A) data-dependent supply kick (common-mode, hurts short rings)\n");
  std::printf("%-12s %10s %10s\n", "kick (ps)", "h @ N=2", "h @ N=9");
  for (double kick : {0.0, 18.0, 60.0, 120.0}) {
    double h[2];
    int idx = 0;
    for (int stages : {2, 9}) {
      core::XorRoTrng trng({.seed = 77, .stages = stages, .rings = 12,
                            .clock_mhz = 100.0, .data_noise_ps = kick});
      h[idx++] = h_overall(trng.generate(bits));
    }
    std::printf("%-12.0f %10.4f %10.4f\n", kick, h[0], h[1]);
  }

  std::printf("\nB) period spread (decorrelates rings from sampling-clock "
              "resonances)\n");
  std::printf("%-12s %10s %10s\n", "spread", "h @ N=8", "h @ N=9");
  for (double tol : {0.005, 0.02, 0.05, 0.08}) {
    double h[2];
    int idx = 0;
    for (int stages : {8, 9}) {
      core::XorRoTrng trng({.seed = 78, .stages = stages, .rings = 12,
                            .clock_mhz = 100.0, .period_tolerance = tol});
      h[idx++] = h_overall(trng.generate(bits));
    }
    std::printf("%-12.3f %10.4f %10.4f\n", tol, h[0], h[1]);
  }
  bench::note("N=8/9 sit near the T_s/T_ro ~ 2 resonance; small spreads leave"
              " them locked to the sampling clock");
  return 0;
}
