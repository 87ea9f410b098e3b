// Table 4: NIST SP 800-90B non-IID estimator battery (p-max / h-min per
// estimator) plus the IID-track (MCV) min-entropy, per device.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "core/dhtrng.h"
#include "stats/sp800_90b.h"

int main(int argc, char** argv) {
  using namespace dhtrng;
  bench::accept_flags(argc, argv, {"bits"});
  const auto bits = static_cast<std::size_t>(bench::flag(argc, argv, "bits", 1000000));

  bench::header("Table 4 - NIST SP 800-90B test",
                "DH-TRNG paper, Table 4 (Section 4.1.2)");
  std::printf("config: %zu bits per device (paper: 30 x 1 Mbit)\n", bits);

  // Paper values for reference (Virtex-6 / Artix-7 h-min columns).
  struct PaperRow { const char* name; double v6; double a7; };
  static constexpr PaperRow kPaper[] = {
      {"MCV", 0.994698, 0.995966},       {"Collision", 0.923184, 0.939304},
      {"Markov", 0.995748, 0.997594},    {"Compression", 1.0, 1.0},
      {"t-Tuple", 0.945111, 0.917726},   {"LRS", 0.945206, 0.991475},
      {"Multi-MCW", 0.998657, 0.996713}, {"Lag", 0.998567, 0.995153},
      {"Multi-MMC", 0.998183, 0.998368}, {"LZ78Y", 0.99509, 0.997038},
  };

  for (const auto& device : bench::paper_devices()) {
    const bool is_v6 = device.process_nm == 45;
    std::printf("\n--- %s ---\n", device.name.c_str());
    core::DhTrng trng({.device = device, .seed = 777});
    const auto stream = trng.generate(bits);
    const auto rows = stats::sp800_90b::run_all(stream);
    std::printf("%-12s %-10s %-10s %s\n", "estimator", "p-max", "h-min",
                "paper h-min");
    double overall = 1.0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      overall = std::min(overall, rows[i].h_min);
      std::printf("%-12s %.6f   %.6f   %.6f\n", rows[i].name.c_str(),
                  rows[i].p_max, rows[i].h_min,
                  is_v6 ? kPaper[i].v6 : kPaper[i].a7);
    }
    std::printf("overall (min):      %.6f\n", overall);
    std::printf("IID track (MCV):    %.6f  (paper: %.6f)\n",
                stats::sp800_90b::iid_min_entropy(stream),
                is_v6 ? 0.994698 : 0.995966);
  }
  return 0;
}
