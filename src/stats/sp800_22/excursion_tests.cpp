// SP 800-22 sections 2.14 and 2.15: Random Excursions and Random Excursions
// Variant.  Both examine the +-1 random walk of the sequence, cycle by
// cycle (a cycle is a sub-walk between returns to zero); they apply only
// when the walk has at least 500 cycles.
#include <array>
#include <cmath>
#include <map>

#include "stats/kernels.h"
#include "stats/sp800_22.h"
#include "support/special_functions.h"

namespace dhtrng::stats::kernels {

WalkVisits walk_visits(const BitStream& bits) {
  WalkVisits info;
  long long s = 0;
  std::array<std::size_t, 9> cycle_visits{};   // -4..4 within current cycle
  const auto flush_cycle = [&] {
    ++info.cycles;
    for (std::size_t i = 0; i < 9; ++i) {
      if (i == 4) continue;  // state 0
      const std::size_t k = std::min<std::size_t>(cycle_visits[i], 5);
      ++info.klass[i][k];
      cycle_visits[i] = 0;
    }
  };
  const auto step = [&](bool bit) {
    s += bit ? 1 : -1;
    if (s == 0) {
      flush_cycle();
    } else {
      if (s >= -4 && s <= 4) {
        ++cycle_visits[static_cast<std::size_t>(s + 4)];
      }
      if (s >= -9 && s <= 9) {
        ++info.total_visits[static_cast<std::size_t>(s + 9)];
      }
    }
  };
  // The per-bit state machine is fed from a shifted 64-bit register
  // instead of per-index container reads.
  const std::size_t n = bits.size();
  for (std::size_t base = 0; base < n; base += 64) {
    std::uint64_t reg = bits.chunk64(base);
    const std::size_t valid = std::min<std::size_t>(64, n - base);
    for (std::size_t j = 0; j < valid; ++j) {
      step((reg & 1u) != 0);
      reg >>= 1;
    }
  }
  if (s != 0) flush_cycle();  // the final partial cycle counts as one
  return info;
}

}  // namespace dhtrng::stats::kernels

namespace dhtrng::stats::sp800_22 {

using support::erfc;
using support::igamc;

TestResult random_excursions(const BitStream& bits) {
  const kernels::WalkVisits info = kernels::walk_visits(bits);
  TestResult result{"RandomExcursions", {}};
  if (info.cycles < 500) {
    result.applicable = false;
    return result;
  }
  const double j = static_cast<double>(info.cycles);
  for (int x : {-4, -3, -2, -1, 1, 2, 3, 4}) {
    const double ax = std::abs(static_cast<double>(x));
    std::array<double, 6> pi{};
    pi[0] = 1.0 - 1.0 / (2.0 * ax);
    for (std::size_t k = 1; k <= 4; ++k) {
      pi[k] = (1.0 / (4.0 * ax * ax)) *
              std::pow(1.0 - 1.0 / (2.0 * ax), static_cast<double>(k) - 1.0);
    }
    pi[5] = (1.0 / (2.0 * ax)) * std::pow(1.0 - 1.0 / (2.0 * ax), 4.0);
    double chi2 = 0.0;
    const auto& nu = info.klass[static_cast<std::size_t>(x + 4)];
    for (std::size_t k = 0; k <= 5; ++k) {
      const double expected = j * pi[k];
      const double d = static_cast<double>(nu[k]) - expected;
      chi2 += d * d / expected;
    }
    result.p_values.push_back(igamc(2.5, chi2 / 2.0));
  }
  return result;
}

TestResult random_excursions_variant(const BitStream& bits) {
  const kernels::WalkVisits info = kernels::walk_visits(bits);
  TestResult result{"RandomExcursionsVariant", {}};
  if (info.cycles < 500) {
    result.applicable = false;
    return result;
  }
  const double j = static_cast<double>(info.cycles);
  for (int x = -9; x <= 9; ++x) {
    if (x == 0) continue;
    const double xi =
        static_cast<double>(info.total_visits[static_cast<std::size_t>(x + 9)]);
    const double ax = std::abs(static_cast<double>(x));
    const double p =
        erfc(std::abs(xi - j) / std::sqrt(2.0 * j * (4.0 * ax - 2.0)));
    result.p_values.push_back(p);
  }
  return result;
}

}  // namespace dhtrng::stats::sp800_22
