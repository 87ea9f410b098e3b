// SP 800-22 section 2.10: Linear Complexity test (Berlekamp-Massey per
// block, chi-square over the deviation classes).
#include <array>
#include <cmath>

#include "stats/kernels.h"
#include "stats/sp800_22.h"
#include "support/berlekamp_massey.h"
#include "support/special_functions.h"

namespace dhtrng::stats::kernels {

std::vector<std::size_t> block_linear_complexities(const BitStream& bits,
                                                   std::size_t m) {
  std::vector<std::size_t> l(bits.size() / m);
  for (std::size_t b = 0; b < l.size(); ++b) {
    l[b] = support::linear_complexity(bits, b * m, m);
  }
  return l;
}

}  // namespace dhtrng::stats::kernels

namespace dhtrng::stats::sp800_22 {

using support::igamc;

TestResult linear_complexity(const BitStream& bits, std::size_t block_len) {
  static constexpr std::array<double, 7> kPi = {
      0.010417, 0.03125, 0.125, 0.5, 0.25, 0.0625, 0.020833};
  const std::size_t m = block_len;
  const std::size_t blocks = bits.size() / m;
  if (blocks == 0) return {"LinearComplexity", {}, false};

  const double md = static_cast<double>(m);
  const double sign_mu = (m % 2 == 0) ? -1.0 : 1.0;  // (-1)^(M+1)
  const double mu = md / 2.0 + (9.0 + sign_mu) / 36.0 -
                    (md / 3.0 + 2.0 / 9.0) / std::pow(2.0, md);
  const double sign_t = (m % 2 == 0) ? 1.0 : -1.0;  // (-1)^M

  std::array<std::size_t, 7> nu{};
  for (std::size_t l : kernels::block_linear_complexities(bits, m)) {
    const double t = sign_t * (static_cast<double>(l) - mu) + 2.0 / 9.0;
    std::size_t cls;
    if (t <= -2.5) cls = 0;
    else if (t <= -1.5) cls = 1;
    else if (t <= -0.5) cls = 2;
    else if (t <= 0.5) cls = 3;
    else if (t <= 1.5) cls = 4;
    else if (t <= 2.5) cls = 5;
    else cls = 6;
    ++nu[cls];
  }
  double chi2 = 0.0;
  for (std::size_t c = 0; c < 7; ++c) {
    const double expected = static_cast<double>(blocks) * kPi[c];
    const double d = static_cast<double>(nu[c]) - expected;
    chi2 += d * d / expected;
  }
  return {"LinearComplexity", {igamc(3.0, chi2 / 2.0)}};
}

}  // namespace dhtrng::stats::sp800_22
