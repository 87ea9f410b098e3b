#include "stats/fips140.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>

#include "stats/kernels.h"
#include "support/wordops.h"

namespace dhtrng::stats::kernels {

RunHistogram run_histogram(const BitStream& bits, std::size_t len) {
  RunHistogram counts{};
  support::wordops::for_each_run(bits, 0, len, [&](bool v, std::size_t run) {
    ++counts[v ? 1u : 0u][std::min<std::size_t>(run, 6) - 1];
  });
  return counts;
}

std::size_t longest_run(const BitStream& bits, std::size_t len) {
  // A run ends at each bit i < len - 1 whose successor differs: bit i of
  // w ^ (w >> 1 | next word << 63).  Runs are the gaps between the ends.
  const auto words = bits.words();
  std::size_t longest = 0;
  std::size_t start = 0;
  for (std::size_t k = 0; 64 * k + 1 < len; ++k) {
    const std::uint64_t next = k + 1 < words.size() ? words[k + 1] : 0;
    std::uint64_t ends = words[k] ^ ((words[k] >> 1) | (next << 63));
    const std::size_t pairs = len - 1 - 64 * k;
    if (pairs < 64) ends &= (std::uint64_t{1} << pairs) - 1;
    for (; ends != 0; ends &= ends - 1) {
      const std::size_t end =
          64 * k + static_cast<std::size_t>(std::countr_zero(ends));
      longest = std::max(longest, end + 1 - start);
      start = end + 1;
    }
  }
  return std::max(longest, len - start);
}

std::uint64_t nibble_square_sum(const BitStream& bits, std::size_t nibbles) {
  // The LSB-first nibble is a slot permutation of the MSB-first one, which
  // leaves the sum of squared counts unchanged.
  std::array<std::uint64_t, 16> f{};
  for (std::size_t i = 0; i < nibbles; i += 16) {
    std::uint64_t w = bits.chunk64(4 * i);
    const std::size_t cnt = std::min<std::size_t>(16, nibbles - i);
    for (std::size_t k = 0; k < cnt; ++k) {
      ++f[w & 15];
      w >>= 4;
    }
  }
  std::uint64_t sum = 0;
  for (std::uint64_t c : f) sum += c * c;
  return sum;
}

}  // namespace dhtrng::stats::kernels

namespace dhtrng::stats::fips140 {

namespace {

void require_size(const support::BitStream& sample) {
  if (sample.size() < kSampleBits) {
    throw std::invalid_argument("fips140: need 20000 bits");
  }
}

}  // namespace

bool monobit(const support::BitStream& sample, double* ones_out) {
  require_size(sample);
  const std::size_t ones = sample.count_ones(0, kSampleBits);
  if (ones_out != nullptr) *ones_out = static_cast<double>(ones);
  return ones > 9725 && ones < 10275;
}

bool poker(const support::BitStream& sample, double* chi2_out) {
  require_size(sample);
  // The counts are integers, so their sum of squares is exact in a double.
  const double sum =
      static_cast<double>(kernels::nibble_square_sum(sample, kSampleBits / 4));
  const double x = (16.0 / 5000.0) * sum - 5000.0;
  if (chi2_out != nullptr) *chi2_out = x;
  return x > 2.16 && x < 46.17;
}

bool runs(const support::BitStream& sample) {
  require_size(sample);
  // FIPS 140-2 run-length acceptance intervals for lengths 1..5 and 6+.
  static constexpr std::array<std::pair<std::size_t, std::size_t>, 6>
      kBounds = {{{2343, 2657},
                  {1135, 1365},
                  {542, 708},
                  {251, 373},
                  {111, 201},
                  {111, 201}}};
  const kernels::RunHistogram counts =
      kernels::run_histogram(sample, kSampleBits);
  for (const auto& side : counts) {
    for (std::size_t l = 0; l < 6; ++l) {
      if (side[l] < kBounds[l].first || side[l] > kBounds[l].second) {
        return false;
      }
    }
  }
  return true;
}

bool long_run(const support::BitStream& sample, std::size_t* longest_out) {
  require_size(sample);
  const std::size_t longest = kernels::longest_run(sample, kSampleBits);
  if (longest_out != nullptr) *longest_out = longest;
  return longest < 26;
}

std::vector<Outcome> run_all(const support::BitStream& sample) {
  std::vector<Outcome> out;
  double ones = 0.0, chi2 = 0.0;
  std::size_t longest = 0;
  out.push_back({"Monobit", monobit(sample, &ones), ones});
  out.push_back({"Poker", poker(sample, &chi2), chi2});
  out.push_back({"Runs", runs(sample), 0.0});
  out.push_back({"Long run", long_run(sample, &longest),
                 static_cast<double>(longest)});
  return out;
}

bool power_up_ok(const support::BitStream& sample) {
  for (const Outcome& o : run_all(sample)) {
    if (!o.pass) return false;
  }
  return true;
}

}  // namespace dhtrng::stats::fips140
