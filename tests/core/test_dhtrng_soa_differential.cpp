// Differential suite: DhTrngSoA against scalar DhTrng instances across
// device models (the `slow differential` lane — see tests/CMakeLists.txt).
//
// The bitsliced engine draws a different noise stream from the scalar
// phase-domain backend and only claims statistical equivalence, so it is
// compared on aggregate statistics (bias, per-lane bias spread,
// metastable-capture rate) against a population of scalar instances.
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/dhtrng.h"
#include "core/dhtrng_soa.h"
#include "fpga/device.h"

using dhtrng::core::DhTrng;
using dhtrng::core::DhTrngConfig;
using dhtrng::core::DhTrngSoA;
using dhtrng::core::DhTrngSoAConfig;
using dhtrng::core::kSoaLanes;

namespace {

struct DeviceCase {
  const char* name;
  dhtrng::fpga::DeviceModel model;
};

std::vector<DeviceCase> device_cases() {
  return {{"artix7", dhtrng::fpga::DeviceModel::artix7()},
          {"virtex6", dhtrng::fpga::DeviceModel::virtex6()}};
}

}  // namespace

TEST(SoaDifferential, FastModeStatisticsMatchScalarPopulation) {
  constexpr std::size_t kWords = 20000;  // 64 lanes x 20k bits each
  for (const DeviceCase& dev : device_cases()) {
    DhTrngSoAConfig soa_cfg;
    soa_cfg.core.seed = 31;
    soa_cfg.core.device = dev.model;
    DhTrngSoA soa(soa_cfg);
    std::vector<std::uint64_t> words(kWords);
    soa.generate_words(words.data(), kWords);

    // Aggregate and per-lane bias.  Each lane is an independent instance
    // seeing kWords bits, so its bias is binomial: sigma = 0.5/sqrt(n),
    // and a |bias - 0.5| beyond 5 sigma on any of the 64 lanes flags a
    // broken lane (p ~ 4e-5 for the whole matrix).
    std::uint64_t total_ones = 0;
    const double sigma = 0.5 / std::sqrt(static_cast<double>(kWords));
    for (std::size_t l = 0; l < kSoaLanes; ++l) {
      std::uint64_t ones = 0;
      for (std::uint64_t w : words) ones += (w >> l) & 1u;
      total_ones += ones;
      const double lane_bias =
          static_cast<double>(ones) / static_cast<double>(kWords);
      ASSERT_NEAR(lane_bias, 0.5, 5.0 * sigma)
          << dev.name << " lane " << l;
    }
    const double bias = static_cast<double>(total_ones) /
                        static_cast<double>(kWords * kSoaLanes);
    EXPECT_NEAR(bias, 0.5, 5.0 * sigma / 8.0) << dev.name;  // /sqrt(64)

    // Metastable-capture rate against a small scalar population on the
    // same device: same mechanism, different draws — loose band.
    double scalar_meta = 0.0;
    for (std::uint64_t seed : {31ull, 32ull, 33ull}) {
      DhTrngConfig cfg;
      cfg.seed = seed;
      cfg.device = dev.model;
      DhTrng scalar(cfg);
      for (std::size_t i = 0; i < kWords; ++i) scalar.next_bit();
      scalar_meta += scalar.metastable_fraction() / 3.0;
    }
    EXPECT_GT(soa.metastable_fraction(), 0.6 * scalar_meta) << dev.name;
    EXPECT_LT(soa.metastable_fraction(), 1.6 * scalar_meta) << dev.name;
  }
}

TEST(SoaDifferential, FastModeLaneStreamsAreDistinct) {
  DhTrngSoAConfig cfg;
  cfg.core.seed = 41;
  DhTrngSoA soa(cfg);
  constexpr std::size_t kWords = 512;
  std::vector<std::uint64_t> words(kWords);
  soa.generate_words(words.data(), kWords);
  // No two lanes may produce the same 512-bit stream (independent seeds);
  // compare lane columns pairwise via a per-lane hash.
  std::vector<std::uint64_t> lane_hash(kSoaLanes, 1469598103934665603ull);
  for (std::uint64_t w : words) {
    for (std::size_t l = 0; l < kSoaLanes; ++l) {
      lane_hash[l] = (lane_hash[l] ^ ((w >> l) & 1u)) * 1099511628211ull;
    }
  }
  for (std::size_t a = 0; a < kSoaLanes; ++a) {
    for (std::size_t b = a + 1; b < kSoaLanes; ++b) {
      ASSERT_NE(lane_hash[a], lane_hash[b]) << "lanes " << a << "," << b;
    }
  }
}
