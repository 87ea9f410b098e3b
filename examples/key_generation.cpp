// Key generation backed by the health-gated entropy service — the paper's
// motivating use case (roots of trust for encryption systems).
//
// An EntropyPool runs several DH-TRNG producers on background threads,
// gates every block through the SP 800-90B continuous health tests
// (repetition count + adaptive proportion), and quarantines/reseeds any
// producer that alarms.  On top of that continuous gate this example adds
// an AIS-31 procedure-A screen on the drawn key material, the way a
// deployed TRNG peripheral layers a consumer-side acceptance test over the
// source-side online tests.
#include <cstdio>
#include <cstdlib>

#include "core/entropy_pool.h"
#include "stats/ais31.h"

namespace {

using namespace dhtrng;

/// Consumer-side screen: AIS-31 procedure-A statistical tests on a
/// 20000-bit block of drawn material.
bool block_is_healthy(const support::BitStream& block) {
  return stats::ais31::t1_monobit(block) && stats::ais31::t2_poker(block) &&
         stats::ais31::t4_long_run(block);
}

support::BitStream draw_bits(core::EntropyPool& pool, std::size_t nbits) {
  return support::BitStream::from_bytes(pool.get_bytes((nbits + 7) / 8))
      .slice(0, nbits);
}

void print_hex(const char* label, const support::BitStream& bits) {
  std::printf("%s", label);
  for (std::uint8_t b : bits.to_bytes()) std::printf("%02x", b);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const int keys = argc > 1 ? std::atoi(argv[1]) : 4;

  auto pool = core::EntropyPool::of_dhtrng(
      {.producers = 2, .buffer_bytes = 8192, .block_bits = 4096},
      {.device = fpga::DeviceModel::artix7(), .seed = 0xC0FFEE});

  // Startup test: discard and verify the first block (AIS-31 requires the
  // startup sequence to be tested and thrown away).
  {
    const auto startup = draw_bits(pool, 20000);
    if (!block_is_healthy(startup)) {
      std::fprintf(stderr, "startup health test failed\n");
      return 1;
    }
    std::printf("startup health test: ok (20000 bits tested and discarded)\n\n");
  }

  support::BitStream material;
  std::size_t blocks_tested = 0, blocks_rejected = 0;
  const auto refill = [&](std::size_t needed) {
    while (material.size() < needed) {
      const auto block = draw_bits(pool, 20000);
      ++blocks_tested;
      if (block_is_healthy(block)) {
        material.append(block);
      } else {
        ++blocks_rejected;  // discard unhealthy block, keep drawing
      }
    }
  };

  std::size_t cursor = 0;
  for (int k = 0; k < keys; ++k) {
    refill(cursor + 256 + 96);
    const auto key = material.slice(cursor, 256);
    cursor += 256;
    const auto nonce = material.slice(cursor, 96);
    cursor += 96;
    std::printf("key %d\n", k + 1);
    print_hex("  AES-256 key : ", key);
    print_hex("  GCM nonce   : ", nonce);
  }

  const core::PoolHealthSnapshot health = pool.snapshot();
  std::printf("\n%zu producers, %zu healthy at exit; %zu source quarantine "
              "event(s)\n",
              health.producers, health.healthy, health.quarantines);
  std::printf("%zu blocks screened, %zu rejected; %zu bytes drawn from the "
              "pool in total\n",
              blocks_tested, blocks_rejected, health.bytes_produced);
  return 0;
}
