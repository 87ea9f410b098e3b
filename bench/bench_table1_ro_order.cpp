// Table 1: SP 800-90B min-entropy of parallel XORed ring oscillators of
// order 2..13, sampled at 100 MHz.
//
// Paper values: a shallow hump, 0.9737 at N=2 rising to 0.9871 at N=9 and
// falling back to 0.9735 at N=13.  Our model reproduces the *range*
// (0.97-0.99) and the qualitative mechanisms (common-mode data-dependent
// supply noise hurting short fast rings, rotation structure and resonance
// susceptibility hurting long slow ones); the exact argmax is within the
// run-to-run noise of the estimators, so the bench averages several seeds.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "core/baselines/xor_ro_trng.h"
#include "stats/sp800_90b.h"

namespace {

double measured_min_entropy(const dhtrng::support::BitStream& bits) {
  using namespace dhtrng::stats::sp800_90b;
  // The dominant estimators for this data class (full battery in Table 4's
  // bench); min over them approximates the 90B assessment.
  double h = 1.0;
  h = std::min(h, mcv(bits).h_min);
  h = std::min(h, markov(bits).h_min);
  h = std::min(h, lag(bits).h_min);
  h = std::min(h, multi_mmc(bits).h_min);
  h = std::min(h, multi_mcw(bits).h_min);
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dhtrng;
  bench::accept_flags(argc, argv, {"bits", "seeds"});
  const auto bits_per_run =
      static_cast<std::size_t>(bench::flag(argc, argv, "bits", 200000));
  const auto seeds = static_cast<std::uint64_t>(bench::flag(argc, argv, "seeds", 4));

  bench::header("Table 1 - randomness of different-order oscillation rings",
                "DH-TRNG paper, Table 1 (Section 3.1)");
  std::printf("config: 12 XORed rings, 100 MHz sampling, %zu bits x %llu seeds\n\n",
              bits_per_run, static_cast<unsigned long long>(seeds));

  static constexpr double kPaper[12] = {0.9737, 0.9733, 0.9756, 0.9776,
                                        0.9783, 0.9831, 0.9860, 0.9871,
                                        0.9842, 0.9837, 0.9788, 0.9735};

  std::printf("stages | paper h-min | measured h-min\n");
  std::printf("-------+-------------+---------------\n");
  double best_h = 0.0;
  int best_n = 0;
  for (int stages = 2; stages <= 13; ++stages) {
    double sum = 0.0;
    for (std::uint64_t s = 0; s < seeds; ++s) {
      core::XorRoTrng trng({.device = fpga::DeviceModel::artix7(),
                            .seed = 1000 + s * 7919,
                            .stages = stages,
                            .rings = 12,
                            .clock_mhz = 100.0});
      sum += measured_min_entropy(trng.generate(bits_per_run));
    }
    const double h = sum / static_cast<double>(seeds);
    if (h > best_h) {
      best_h = h;
      best_n = stages;
    }
    std::printf("  %2d   |   %.4f    |    %.4f\n", stages,
                kPaper[stages - 2], h);
  }
  std::printf("\nmeasured argmax: N = %d (paper: N = 9); both trade ring\n",
              best_n);
  std::printf("order against sampling-relative jitter, see DESIGN.md sec. 6.\n");
  return 0;
}
