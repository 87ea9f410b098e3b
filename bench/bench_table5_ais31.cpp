// Table 5: AIS-31 test battery (T0-T8) per device.
//
// The paper collects 7,200,000 bits per device; the full BSI reference
// procedure we implement (T0 on 2^16 48-bit blocks + 257 x 20 kbit
// sequences + procedure B) needs ~10.4 Mbit, so the bench generates
// ais31::required_bits() and reports the same nine rows.
#include <cstdio>

#include "bench_util.h"
#include "core/dhtrng.h"
#include "stats/ais31.h"

int main(int argc, char** argv) {
  using namespace dhtrng;
  bench::accept_flags(argc, argv, {});

  bench::header("Table 5 - AIS-31 test", "DH-TRNG paper, Table 5 (4.1.3)");
  std::printf("config: %zu bits per device (paper: 7,200,000)\n",
              stats::ais31::required_bits());

  for (const auto& device : bench::paper_devices()) {
    std::printf("\n--- %s ---\n", device.name.c_str());
    core::DhTrng trng({.device = device, .seed = 31337});
    const auto stream = trng.generate(stats::ais31::required_bits());
    std::printf("%-34s %-8s %s\n", "AIS-31", "result", "pass rate");
    bool all = true;
    for (const auto& outcome : stats::ais31::run_all(stream)) {
      std::printf("%-34s %-8s %.1f%%  %s\n", outcome.name.c_str(),
                  outcome.pass ? "Pass" : "FAIL", outcome.pass_rate * 100.0,
                  outcome.detail.c_str());
      all = all && outcome.pass;
    }
    std::printf("=> %s (paper: all pass)\n",
                all ? "all items pass" : "FAILURES present");
  }
  return 0;
}
