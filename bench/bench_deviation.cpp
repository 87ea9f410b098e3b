// Section 4.3 deviation test: bias of 10 x 1 Mbit sets per device (Eq. 6).
// Paper: 0.0075% (Virtex-6) and 0.0069% (Artix-7).
#include <cstdio>

#include "bench_util.h"
#include "core/dhtrng.h"
#include "stats/correlation.h"

int main(int argc, char** argv) {
  using namespace dhtrng;
  bench::accept_flags(argc, argv, {"bits", "sets"});
  const auto sets = static_cast<std::size_t>(bench::flag(argc, argv, "sets", 10));
  const auto bits = static_cast<std::size_t>(bench::flag(argc, argv, "bits", 1000000));

  bench::header("Deviation (bias) test", "DH-TRNG paper, Section 4.3, Eq. 6");
  std::printf("config: %zu sets x %zu bits per device (paper: 10 x 1 Mbit)\n\n",
              sets, bits);

  for (const auto& device : bench::paper_devices()) {
    core::DhTrng trng({.device = device, .seed = 606});
    double total_ones = 0.0, total = 0.0;
    for (std::size_t s = 0; s < sets; ++s) {
      const auto stream = trng.generate(bits);
      total_ones += static_cast<double>(stream.count_ones());
      total += static_cast<double>(stream.size());
    }
    const double bias =
        std::abs(2.0 * total_ones - total) / total * 100.0;
    const double paper = device.process_nm == 45 ? 0.0075 : 0.0069;
    std::printf("%-10s measured bias = %.4f%%   (paper: %.4f%%)\n",
                device.name.c_str(), bias, paper);
  }
  bench::note("bias at this volume is sampling-noise dominated; the criterion"
              " is << 0.1%");
  return 0;
}
