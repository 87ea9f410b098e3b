// Figure 8: autocorrelation function of 1 Mbit for lags 1..100, per device.
// Pass criterion (Karl Pearson, as cited by the paper): |ACF| < 0.3 at all
// lags; a healthy generator sits around |ACF| ~ 1/sqrt(n) ~ 0.001.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "core/dhtrng.h"
#include "stats/correlation.h"

int main(int argc, char** argv) {
  using namespace dhtrng;
  bench::accept_flags(argc, argv, {"bits", "lags"});
  const auto bits = static_cast<std::size_t>(bench::flag(argc, argv, "bits", 1000000));
  const auto lags = static_cast<std::size_t>(bench::flag(argc, argv, "lags", 100));

  bench::header("Figure 8 - autocorrelation function test",
                "DH-TRNG paper, Section 4.4");
  std::printf("config: %zu bits, lags 1..%zu, criterion |ACF| < 0.3\n", bits,
              lags);

  for (const auto& device : bench::paper_devices()) {
    core::DhTrng trng({.device = device, .seed = 808});
    const auto stream = trng.generate(bits);
    const auto acf = stats::autocorrelation(stream, lags);
    double max_abs = 0.0;
    std::size_t worst = 1;
    for (std::size_t lag = 0; lag < acf.size(); ++lag) {
      if (std::abs(acf[lag]) > max_abs) {
        max_abs = std::abs(acf[lag]);
        worst = lag + 1;
      }
    }
    std::printf("\n--- %s ---\n", device.name.c_str());
    std::printf("lag:  1..10 = ");
    for (std::size_t lag = 0; lag < 10; ++lag) std::printf("%+.4f ", acf[lag]);
    std::printf("\nmax |ACF| = %.5f at lag %zu -> %s (criterion 0.3)\n",
                max_abs, worst, max_abs < 0.3 ? "PASS" : "FAIL");
  }
  return 0;
}
