// Table 2: min-entropy of XORed dynamic hybrid entropy units vs XORed
// 9-stage ring oscillators at XOR fan-in 9..18 (100 MHz sampling).
//
// Paper claim: the hybrid units win at every fan-in, both rising toward 1
// with the XOR count (the Eq. 4 convergence).  The measured metric is the
// minimum over the bias- and serial-structure estimators (MCV, Markov,
// Lag, Multi-MMC): the hybrid units' holding-region metastability injects
// fresh per-sample entropy that removes the residual rotation structure a
// plain RO array keeps, and that structure is what these estimators see.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "core/baselines/xor_ro_trng.h"
#include "core/hybrid_array.h"
#include "stats/sp800_90b.h"

namespace {

double measured_min_entropy(const dhtrng::support::BitStream& bits) {
  using namespace dhtrng::stats::sp800_90b;
  return std::min({mcv(bits).h_min, markov(bits).h_min, lag(bits).h_min,
                   multi_mmc(bits).h_min});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dhtrng;
  bench::accept_flags(argc, argv, {"bits", "seeds"});
  const auto bits = static_cast<std::size_t>(bench::flag(argc, argv, "bits", 200000));
  const auto seeds = static_cast<std::uint64_t>(bench::flag(argc, argv, "seeds", 4));

  bench::header("Table 2 - hybrid entropy units vs 9-stage ROs",
                "DH-TRNG paper, Table 2 (Section 3.1)");
  std::printf("config: XOR fan-in sweep 9..18, 100 MHz, %zu bits x %llu seeds\n\n",
              bits, static_cast<unsigned long long>(seeds));

  static constexpr double kPaperHybrid[10] = {0.9765, 0.9803, 0.9830, 0.9836,
                                              0.9853, 0.9868, 0.9885, 0.9896,
                                              0.9903, 0.9912};
  static constexpr double kPaperRo[10] = {0.9705, 0.9751, 0.9779, 0.9801,
                                          0.9813, 0.9825, 0.9837, 0.9849,
                                          0.9856, 0.9863};

  // Estimator noise at these volumes is ~±0.005; rows inside that band are
  // statistical ties (both generators sit at the estimator ceiling at high
  // fan-in), so the verdict distinguishes win / tie / loss and the
  // aggregate mean margin is the headline number.
  constexpr double kTieBand = 0.005;
  std::printf("XOR n | paper hybrid / RO | measured hybrid / RO | verdict\n");
  std::printf("------+-------------------+----------------------+--------\n");
  int wins = 0, ties = 0;
  double margin_sum = 0.0;
  for (int n = 9; n <= 18; ++n) {
    double hybrid = 0.0, ro = 0.0;
    for (std::uint64_t s = 0; s < seeds; ++s) {
      core::HybridArrayTrng h({.seed = 10 + s, .units = n, .clock_mhz = 100.0});
      core::XorRoTrng r({.seed = 10 + s, .stages = 9, .rings = n,
                         .clock_mhz = 100.0});
      hybrid += measured_min_entropy(h.generate(bits));
      ro += measured_min_entropy(r.generate(bits));
    }
    hybrid /= static_cast<double>(seeds);
    ro /= static_cast<double>(seeds);
    margin_sum += hybrid - ro;
    const char* verdict;
    if (hybrid > ro + kTieBand) {
      verdict = "win";
      ++wins;
    } else if (hybrid >= ro - kTieBand) {
      verdict = "tie";
      ++ties;
    } else {
      verdict = "loss";
    }
    std::printf(" %2d   |  %.4f / %.4f  |   %.4f / %.4f    |  %s\n", n,
                kPaperHybrid[n - 9], kPaperRo[n - 9], hybrid, ro, verdict);
  }
  std::printf("\nhybrid wins %d / ties %d / loses %d of 10 fan-ins "
              "(paper: 10 wins, margins 0.005-0.006)\n",
              wins, ties, 10 - wins - ties);
  std::printf("mean margin: %+.4f (positive = hybrid ahead, as the paper "
              "finds)\n", margin_sum / 10.0);
  return 0;
}
