// Extension experiment: machine-learning next-bit prediction attack
// (the threat model of the paper's reference [1]) mounted on DH-TRNG, its
// ablated variants and the baselines — a different adversary than the
// statistical batteries of Tables 3-5.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "core/baselines/coso_trng.h"
#include "core/baselines/latch_trng.h"
#include "core/baselines/msf_ro_trng.h"
#include "core/baselines/tero_trng.h"
#include "core/baselines/xor_ro_trng.h"
#include "core/dhtrng.h"
#include "stats/attack.h"

int main(int argc, char** argv) {
  using namespace dhtrng;
  bench::accept_flags(argc, argv, {"bits"});
  const auto bits = static_cast<std::size_t>(bench::flag(argc, argv, "bits", 200000));

  bench::header("Extension - ML next-bit prediction attack",
                "threat model of paper ref. [1] (Truong et al., TIFS'18)");
  std::printf("config: %zu bits per target, logistic regression, 24-bit "
              "window + transition features\n\n",
              bits);

  std::vector<std::pair<std::string, std::unique_ptr<core::TrngSource>>>
      targets;
  targets.emplace_back("DH-TRNG", std::make_unique<core::DhTrng>(
                                      core::DhTrngConfig{.seed = 1}));
  targets.emplace_back(
      "DH-TRNG low-noise",
      std::make_unique<core::DhTrng>(core::DhTrngConfig{
          .seed = 2, .noise_scale = 0.05}));
  targets.emplace_back("XOR-RO 9x12",
                       std::make_unique<core::XorRoTrng>(core::XorRoConfig{
                           .seed = 3, .stages = 9, .rings = 12}));
  targets.emplace_back("XOR-RO 9x2 (thin)",
                       std::make_unique<core::XorRoTrng>(core::XorRoConfig{
                           .seed = 4, .stages = 9, .rings = 2}));
  targets.emplace_back("MSFRO (single ring)",
                       std::make_unique<core::MsfRoTrng>(
                           core::MsfRoConfig{.seed = 5}));
  targets.emplace_back("Multiphase (DAC'23)",
                       std::make_unique<core::CosoTrng>(
                           core::CosoConfig{.seed = 6}));
  targets.emplace_back("Latched-RO",
                       std::make_unique<core::LatchTrng>(
                           core::LatchTrngConfig{.seed = 7}));
  targets.emplace_back("TERO (FPL'20)",
                       std::make_unique<core::TeroTrng>(
                           core::TeroConfig{.seed = 8}));

  std::printf("%-22s %12s %9s %s\n", "target", "accuracy", "z-score",
              "verdict");
  for (auto& [name, trng] : targets) {
    const auto result = stats::logistic_attack(trng->generate(bits));
    std::printf("%-22s %11.4f %9.1f  %s\n", name.c_str(),
                result.test_accuracy, result.z_score,
                result.predictable() ? "PREDICTABLE" : "resists");
  }
  bench::note("expected: DH-TRNG (even noise-starved) resists; thin XOR "
              "arrays and raw single-ring samplers leak");
  return 0;
}
