// Section 4.2 restart test: power-cycle the generator six times, capture
// the first 32 bits each time; all captures must differ.
//
// Paper's captures: 0x8E8F7BE6 0xD448223A 0x2ED82918 0x79DA4E4B 0x51A602A9
// 0xDB9E49EC (all distinct).  Ours are different numbers (different noise),
// but the property under test is distinctness and near-chance pairwise
// agreement.
#include <cstdio>

#include "bench_util.h"
#include "core/dhtrng.h"
#include "stats/restart.h"

int main(int argc, char** argv) {
  using namespace dhtrng;
  bench::accept_flags(argc, argv, {"restarts"});
  const auto restarts = static_cast<std::size_t>(bench::flag(argc, argv, "restarts", 6));

  bench::header("Restart test", "DH-TRNG paper, Section 4.2");

  for (const auto& device : bench::paper_devices()) {
    std::printf("\n--- %s (fast backend) ---\n", device.name.c_str());
    core::DhTrng trng({.device = device, .seed = 20260706});
    const auto result = stats::restart_test(trng, restarts, 32);
    for (std::size_t i = 0; i < result.first_words.size(); ++i) {
      std::printf("restart %zu: 0x%08X\n", i + 1, result.first_words[i]);
    }
    std::printf("all distinct: %s (paper: yes)   max pairwise agreement: %.2f\n",
                result.all_distinct ? "yes" : "NO",
                result.max_pairwise_agreement);
  }

  // Also exercise the gate-level backend (fewer restarts; it is slower).
  std::printf("\n--- Artix-7 (gate-level backend) ---\n");
  core::DhTrng gate({.device = fpga::DeviceModel::artix7(),
                     .seed = 99,
                     .backend = core::Backend::GateLevel});
  const auto result = stats::restart_test(gate, 3, 32);
  for (std::size_t i = 0; i < result.first_words.size(); ++i) {
    std::printf("restart %zu: 0x%08X\n", i + 1, result.first_words[i]);
  }
  std::printf("all distinct: %s\n", result.all_distinct ? "yes" : "NO");
  return 0;
}
