// Figure 9: PVT sweep — SP 800-90B min-entropy across temperature
// (-20..80 C) and core voltage (0.8..1.2 V) for both devices.
//
// Paper observation: maximum min-entropy at the nominal corner (20 C,
// 1.0 V); a slight decrease toward the corners but consistently high.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "core/dhtrng.h"
#include "stats/sp800_90b.h"

namespace {

double corner_min_entropy(const dhtrng::support::BitStream& bits) {
  using namespace dhtrng::stats::sp800_90b;
  double h = 1.0;
  h = std::min(h, mcv(bits).h_min);
  h = std::min(h, markov(bits).h_min);
  h = std::min(h, multi_mmc(bits).h_min);
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dhtrng;
  bench::accept_flags(argc, argv, {"bits"});
  const auto bits = static_cast<std::size_t>(bench::flag(argc, argv, "bits", 300000));

  bench::header("Figure 9 - PVT test", "DH-TRNG paper, Section 4.5");
  std::printf("config: %zu bits per corner (paper: 100 x 1 Mbit per corner)\n",
              bits);

  const double temps[] = {-20.0, 0.0, 20.0, 40.0, 60.0, 80.0};
  const double volts[] = {0.8, 0.9, 1.0, 1.1, 1.2};

  for (const auto& device : bench::paper_devices()) {
    std::printf("\n--- %s : min-entropy surface ---\n", device.name.c_str());
    std::printf("  T\\V   ");
    for (double v : volts) std::printf("  %.1fV  ", v);
    std::printf("\n");
    double nominal = 0.0, worst = 1.0;
    for (double t : temps) {
      std::printf("%+5.0fC  ", t);
      for (double v : volts) {
        core::DhTrng trng({.device = device,
                           .pvt = {t, v},
                           .seed = 9000 + static_cast<std::uint64_t>(t + 100) * 13 +
                                   static_cast<std::uint64_t>(v * 10)});
        const double h = corner_min_entropy(trng.generate(bits));
        if (t == 20.0 && v == 1.0) nominal = h;
        worst = std::min(worst, h);
        std::printf(" %.4f ", h);
      }
      std::printf("\n");
    }
    std::printf("nominal (20C, 1.0V): %.4f   worst corner: %.4f\n", nominal,
                worst);
    std::printf("=> %s\n",
                worst > 0.9 ? "slight corner decrease, consistently high "
                              "(matches paper's qualitative claim)"
                            : "corner degradation larger than paper's");
  }
  return 0;
}
