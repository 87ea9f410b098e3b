// Ablation: the Section 3.2 reinforcement strategies.
//
// Three views, because the 12-channel XOR output is deliberately saturated
// (the full design has large entropy margin, so output-level statistics
// barely separate the variants — itself a reproduction of the paper's
// robustness claim):
//
//  A) output-level statistics per variant (bias / ACF / h-min / NIST);
//  B) channel-level entropy of a central ring with coupling on vs off —
//     the mechanism the coupling strategy exists for;
//  C) low-noise stress: with the physical noise scaled down 50x, the
//     architecture's chaos is all that is left; the feedback strategy's
//     de-periodization then becomes visible at the output.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "core/chaotic_ring.h"
#include "core/dhtrng.h"
#include "stats/correlation.h"
#include "stats/sp800_22.h"
#include "stats/sp800_90b.h"

namespace {

using namespace dhtrng;

double max_abs_acf(const support::BitStream& bits, std::size_t lags) {
  double m = 0.0;
  for (double a : stats::autocorrelation(bits, lags)) {
    m = std::max(m, std::abs(a));
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  dhtrng::bench::accept_flags(argc, argv, {"bits"});
  const auto bits = static_cast<std::size_t>(bench::flag(argc, argv, "bits", 400000));

  bench::header("Ablation - coupling and feedback strategies",
                "DH-TRNG paper, Section 3.2 (design-choice ablation)");

  std::printf("A) output level (%zu bits per variant, Artix-7)\n", bits);
  std::printf("%-34s %9s %10s %10s %8s\n", "variant", "bias(%)", "max|ACF|",
              "h-min", "NIST");
  for (auto [coupling, feedback] :
       {std::pair{true, true}, {true, false}, {false, true}, {false, false}}) {
    core::DhTrng trng({.device = fpga::DeviceModel::artix7(),
                       .seed = 515,
                       .coupling = coupling,
                       .feedback = feedback});
    const auto stream = trng.generate(bits);
    double h = 1.0;
    h = std::min(h, stats::sp800_90b::mcv(stream).h_min);
    h = std::min(h, stats::sp800_90b::markov(stream).h_min);
    h = std::min(h, stats::sp800_90b::multi_mmc(stream).h_min);
    const bool nist = stats::sp800_22::frequency(stream).pass() &&
                      stats::sp800_22::runs(stream).pass() &&
                      stats::sp800_22::serial(stream).pass();
    std::printf("%-34s %9.4f %10.5f %10.4f %8s\n", trng.name().c_str(),
                stats::bias_percent(stream), max_abs_acf(stream, 50), h,
                nist ? "pass" : "FAIL");
  }
  std::printf("(output saturates: the margin hides single-strategy loss — "
              "the paper's robustness)\n\n");

  std::printf("B) central-ring channel entropy (the coupling mechanism)\n");
  {
    const noise::PvtScaling nominal{1.0, 1.0, 1.0};
    for (bool coupling : {true, false}) {
      core::ChaoticRing ring(core::ChaoticRingParams{}, 99);
      support::BitStream channel;
      double pa = 0.17, pb = 0.71;
      for (std::size_t i = 0; i < bits / 2; ++i) {
        pa += 0.311;
        pa -= std::floor(pa);
        pb += 0.477;
        pb -= std::floor(pb);
        ring.advance(1612.9, pa, pb, false, coupling, false, 0.0, nominal);
        channel.push_back(ring.level());
      }
      std::printf("  coupling %-3s : h-markov = %.4f, h-lag = %.4f\n",
                  coupling ? "on" : "off",
                  stats::sp800_90b::markov(channel).h_min,
                  stats::sp800_90b::lag(channel).h_min);
    }
  }
  std::printf("\nC) restart-state divergence (the feedback mechanism)\n");
  std::printf("   Power-on state is identical across restarts; only the\n");
  std::printf("   evolving noise separates runs.  Feedback re-randomizes the\n");
  std::printf("   initial state (Fig. 4b), so restarted streams must\n");
  std::printf("   decorrelate faster.  Noise scaled to 0.05 to expose it.\n");
  for (bool feedback : {true, false}) {
    core::DhTrng trng({.device = fpga::DeviceModel::artix7(),
                       .seed = 303,
                       .feedback = feedback,
                       .noise_scale = 0.05});
    constexpr std::size_t kRestarts = 60;
    constexpr std::size_t kBitsPerRestart = 128;
    std::vector<support::BitStream> runs;
    for (std::size_t r = 0; r < kRestarts; ++r) {
      trng.restart();
      runs.push_back(trng.generate(kBitsPerRestart));
    }
    // Agreement between consecutive restarts, by bit-position block.
    const auto agreement = [&](std::size_t begin) {
      double agree = 0.0;
      for (std::size_t r = 1; r < kRestarts; ++r) {
        const auto diff = support::BitStream::exclusive_or(
            runs[r].slice(begin, 32), runs[r - 1].slice(begin, 32));
        agree += 32.0 - static_cast<double>(diff.count_ones());
      }
      return agree / (32.0 * (kRestarts - 1));
    };
    std::printf("  feedback %-3s : agreement bits 0-31 = %.3f, bits 96-127 = "
                "%.3f (0.5 = fully diverged)\n",
                feedback ? "on" : "off", agreement(0), agreement(96));
  }
  return 0;
}
