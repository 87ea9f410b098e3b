// Extension experiment: multi-core DH-TRNG scaling (the paper's
// "application prospects" — confidential computing / TEE bandwidths).
// Because all cores share one PLL, whose power dominates the budget, the
// figure of merit improves with core count until the per-core terms catch
// up.
#include <cstdio>

#include "bench_util.h"
#include "core/dhtrng_array.h"
#include "fpga/power.h"
#include "stats/correlation.h"

int main(int argc, char** argv) {
  using namespace dhtrng;
  bench::accept_flags(argc, argv, {"bits"});
  const auto bits = static_cast<std::size_t>(bench::flag(argc, argv, "bits", 100000));

  bench::header("Extension - multi-core DH-TRNG scaling",
                "paper Section 1 application scenarios (Artix-7)");

  const auto a7 = fpga::DeviceModel::artix7();
  std::printf("%5s %9s %7s %12s %9s %12s %9s\n", "cores", "Gbps", "slices",
              "power (W)", "FoM", "bias (%)", "mJ/Gbit");
  for (std::size_t cores : {1u, 2u, 4u, 8u, 16u}) {
    core::DhTrngArray array({.core = {.device = a7, .seed = 11},
                             .cores = cores});
    const auto power = fpga::estimate_power(a7, array.activity());
    const std::size_t slices = array.slice_report().slice_count();
    const double fom = array.throughput_mbps() /
                       (static_cast<double>(slices) * power.total_w());
    const auto stream = array.generate(bits);
    const double energy_mj_per_gbit =
        power.total_w() / array.throughput_mbps() * 1e3 * 1e3;
    std::printf("%5zu %9.3f %7zu %12.3f %9.1f %12.4f %9.2f\n", cores,
                array.throughput_mbps() / 1000.0, slices, power.total_w(),
                fom, stats::bias_percent(stream), energy_mj_per_gbit);
  }
  bench::note("single-core FoM reproduces Table 6's 'This work' row; the "
              "shared PLL amortizes *energy per bit* (last column, ~8x "
              "better at 16 cores) while the slice-normalized FoM slowly "
              "falls as per-core power terms accumulate");
  return 0;
}
