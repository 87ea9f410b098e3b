// Table 3: NIST SP 800-22 suite on DH-TRNG output for both devices.
//
// Paper setup: 30 sets of 1 Mbit per device; table reports the uniformity
// P-value (averaged over sub-tests for the * rows) and the pass proportion.
// Default here is 4 sets of 1 Mbit per device so the whole bench suite runs
// in minutes on one core; pass --sets=30 for the paper-exact volume.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/dhtrng.h"
#include "stats/sp800_22.h"
#include "support/stats_util.h"

int main(int argc, char** argv) {
  using namespace dhtrng;
  bench::accept_flags(argc, argv, {"bits", "sets", "threads"});
  const auto sets = static_cast<std::size_t>(bench::flag(argc, argv, "sets", 4));
  const auto bits = static_cast<std::size_t>(bench::flag(argc, argv, "bits", 1000000));
  // --threads=0 -> hardware concurrency; sets are dispatched one per task,
  // so the report is identical for any worker count.
  const auto threads =
      static_cast<std::size_t>(bench::flag(argc, argv, "threads", 1));

  bench::header("Table 3 - NIST SP 800-22 test",
                "DH-TRNG paper, Table 3 (Section 4.1.1)");
  std::printf("config: %zu sets x %zu bits per device (paper: 30 x 1 Mbit)\n",
              sets, bits);

  for (const auto& device : bench::paper_devices()) {
    std::printf("\n--- %s (%s, %d nm) at %.0f MHz ---\n", device.name.c_str(),
                device.part.c_str(), device.process_nm,
                device.max_clock_mhz(2));
    std::vector<support::BitStream> streams;
    for (std::size_t s = 0; s < sets; ++s) {
      core::DhTrng trng({.device = device, .seed = 4000 + s});
      streams.push_back(trng.generate(bits));
    }
    const auto rows = stats::sp800_22::run_suite(streams, 0.01, threads);
    std::printf("%-26s %-10s %s\n", "NIST SP 800-22", "P-value", "Prop.");
    bool in_band = true;
    for (const auto& row : rows) {
      std::printf("%-26s %.6f   %zu/%zu\n", row.name.c_str(), row.p_value,
                  row.passed, row.total);
      // NIST acceptance: exact-binomial minimum pass count (valid at the
      // small default set counts, where the Gaussian band is not).  The
      // per-sequence pass probability is ~0.96 for the multi-subtest rows.
      if (row.total > 0 &&
          row.passed < support::min_pass_count(row.total, 0.96)) {
        in_band = false;
      }
    }
    std::printf("=> %s\n",
                in_band ? "all tests within the NIST acceptance band"
                        : "proportion below the NIST acceptance band");
  }
  return 0;
}
