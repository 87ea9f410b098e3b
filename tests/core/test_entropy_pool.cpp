#include "core/entropy_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/zoo/zoo.h"
#include "support/fault_sources.h"
#include "support/rng.h"

namespace dhtrng::core {
namespace {

using testsupport::BiasedSource;
using testsupport::IdealSource;
using testsupport::IntermittentDropoutSource;
using testsupport::StuckSource;

/// Polls `done` with a bounded grace window (producer threads advance on
/// their own schedule; the fault schedules themselves are bit-exact).
template <typename Predicate>
bool eventually(Predicate done, int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

EntropyPool::SourceFactory ideal_factory() {
  return [](std::size_t, std::uint64_t seed) {
    return std::make_unique<IdealSource>(seed);
  };
}

TEST(EntropyPool, ServesRequestedBytes) {
  EntropyPool pool({.producers = 3, .buffer_bytes = 1024, .block_bits = 256},
                   ideal_factory());
  const auto bytes = pool.get_bytes(512);
  EXPECT_EQ(bytes.size(), 512u);
  EXPECT_EQ(pool.healthy_producers(), 3u);
  EXPECT_EQ(pool.quarantine_events(), 0u);
}

TEST(EntropyPool, OutputLooksRandom) {
  EntropyPool pool({.producers = 2, .buffer_bytes = 4096, .block_bits = 512},
                   ideal_factory());
  const auto bytes = pool.get_bytes(8192);
  std::size_t ones = 0;
  for (std::uint8_t b : bytes) {
    ones += static_cast<std::size_t>(__builtin_popcount(b));
  }
  const double bias = static_cast<double>(ones) / (8192.0 * 8.0);
  EXPECT_NEAR(bias, 0.5, 0.02);
}

TEST(EntropyPool, RejectsBadConfig) {
  EXPECT_THROW(EntropyPool({.producers = 0}, ideal_factory()),
               std::invalid_argument);
  EXPECT_THROW(EntropyPool({.block_bits = 12}, ideal_factory()),
               std::invalid_argument);
  // Blocks are published whole: a buffer smaller than one block (4096
  // bits = 512 bytes) could never accept a push.
  EXPECT_THROW(EntropyPool({.buffer_bytes = 511, .block_bits = 4096},
                           ideal_factory()),
               std::invalid_argument);
}

// Byte-order contract: a single-producer pool serves exactly its source's
// own bit stream, packed MSB-first, across block boundaries — at
// block_bits 768 (not a power of two), 776 (not a multiple of the 64-bit
// word, so every block ends in a partial health word) and 4096.
TEST(EntropyPool, SingleProducerServesSourceStreamPackedMsbFirst) {
  using Make = std::function<std::unique_ptr<TrngSource>(std::uint64_t)>;
  struct Case {
    const char* name;
    Make make;
    std::size_t bytes;
  };
  const Case cases[] = {
      {"soa-fast",
       [](std::uint64_t seed) -> std::unique_ptr<TrngSource> {
         DhTrngSoAConfig cfg;
         cfg.core.seed = seed;
         cfg.noise_mode = noise::NoiseMode::Fast;
         return std::make_unique<DhTrngSoA>(cfg);
       },
       8192},
      {"dhtrng",
       [](std::uint64_t seed) -> std::unique_ptr<TrngSource> {
         return std::make_unique<DhTrng>(DhTrngConfig{.seed = seed});
       },
       1024},
      {"neo",
       [](std::uint64_t seed) -> std::unique_ptr<TrngSource> {
         ZooOptions opt;
         opt.seed = seed;
         return make_zoo_source("neo", opt);
       },
       512},
  };
  for (const Case& c : cases) {
    for (const std::size_t block_bits :
         {std::size_t{768}, std::size_t{776}, std::size_t{4096}}) {
      SCOPED_TRACE(std::string(c.name) + " block_bits " +
                   std::to_string(block_bits));
      // The factory's first call happens in the constructor, before the
      // producer thread starts; a reseed would break the identity anyway
      // and is asserted absent below.
      std::uint64_t seed = 0;
      std::vector<std::uint8_t> served;
      {
        EntropyPool pool(
            {.producers = 1, .buffer_bytes = 1024, .block_bits = block_bits},
            [&](std::size_t, std::uint64_t s) {
              seed = s;
              return c.make(s);
            });
        served = pool.get_bytes(c.bytes);
        pool.stop();
        ASSERT_EQ(pool.quarantine_events(), 0u);
      }
      const std::unique_ptr<TrngSource> replay = c.make(seed);
      std::vector<std::uint8_t> expected(c.bytes);
      for (auto& byte : expected) {
        for (int b = 0; b < 8; ++b) {
          byte = static_cast<std::uint8_t>((byte << 1) |
                                           (replay->next_bit() ? 1u : 0u));
        }
      }
      EXPECT_EQ(served, expected);
    }
  }
}

TEST(EntropyPool, ConcurrentConsumersDrainWithoutLossOrDuplication) {
  EntropyPool pool({.producers = 4, .buffer_bytes = 512, .block_bits = 256},
                   ideal_factory());
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 4; ++c) {
    consumers.emplace_back([&pool, &total] {
      for (int i = 0; i < 10; ++i) {
        total += pool.get_bytes(100).size();
      }
    });
  }
  for (auto& t : consumers) t.join();
  EXPECT_EQ(total.load(), 4u * 10u * 100u);
  EXPECT_GE(pool.bytes_produced(), total.load());
}

TEST(EntropyPool, QuarantinesAndReseedsFailingProducer) {
  // Producer 0 sticks at 0 after 4000 bits; its replacement (same factory,
  // fresh seed) is healthy.  The pool must alarm on the stuck block,
  // reseed, and keep serving — with no producer permanently retired.
  std::atomic<int> builds_of_producer0{0};
  EntropyPool pool(
      {.producers = 2, .buffer_bytes = 2048, .block_bits = 512},
      [&](std::size_t index, std::uint64_t seed) -> std::unique_ptr<TrngSource> {
        if (index == 0 && builds_of_producer0.fetch_add(1) == 0) {
          return std::make_unique<StuckSource>(seed, 4000);
        }
        return std::make_unique<IdealSource>(seed);
      });
  // Pull enough to guarantee the stuck region was generated and gated.
  const auto bytes = pool.get_bytes(4096);
  EXPECT_EQ(bytes.size(), 4096u);
  // Wait for the quarantine to be observable (the producer alarms while
  // consumers drain; give it a bounded grace window).
  for (int i = 0; i < 200 && pool.quarantine_events() == 0; ++i) {
    pool.get_bytes(256);
  }
  EXPECT_GE(pool.quarantine_events(), 1u);
  EXPECT_GE(builds_of_producer0.load(), 2);  // initial + >= 1 reseed
  EXPECT_EQ(pool.healthy_producers(), 2u);
}

TEST(EntropyPool, StuckProducerNeverContaminatesOutput) {
  // One producer emits all-zero bits from the start, through every reseed.
  // Every byte it generates must be discarded by the health gate: with the
  // other producer ideal, long all-zero runs cannot appear in the output.
  EntropyPool pool(
      {.producers = 2, .buffer_bytes = 1024, .block_bits = 256},
      [](std::size_t index, std::uint64_t seed) -> std::unique_ptr<TrngSource> {
        if (index == 0) return std::make_unique<StuckSource>(seed, 0);
        return std::make_unique<IdealSource>(seed);
      });
  const auto bytes = pool.get_bytes(16384);
  std::size_t zero_run = 0, worst_run = 0;
  for (std::uint8_t b : bytes) {
    zero_run = b == 0 ? zero_run + 1 : 0;
    worst_run = std::max(worst_run, zero_run);
  }
  // A stuck block is 32 all-zero bytes; an ideal stream of 16 KiB has
  // ~2e-9 probability of even 4 consecutive zero bytes.
  EXPECT_LT(worst_run, 4u);
  EXPECT_EQ(pool.healthy_producers(), 1u);  // the stuck one retired
  EXPECT_GE(pool.quarantine_events(), 1u);
}

TEST(EntropyPool, RefusesOnlyWhenAllProducersUnhealthy) {
  // Both producers stuck from the start: after max_reseeds each, the pool
  // is exhausted and get_bytes must throw rather than emit unhealthy bytes.
  EntropyPool pool(
      {.producers = 2, .buffer_bytes = 256, .block_bits = 256,
       .max_reseeds = 2},
      [](std::size_t, std::uint64_t seed) {
        return std::make_unique<StuckSource>(seed, 0);
      });
  EXPECT_THROW(pool.get_bytes(64), EntropyExhausted);
  EXPECT_EQ(pool.healthy_producers(), 0u);
  EXPECT_EQ(pool.bytes_produced(), 0u);
}

TEST(EntropyPool, CleanShutdownWhileProducersBlocked) {
  // Destructor races producers blocked on a full buffer — must not hang.
  auto pool = std::make_unique<EntropyPool>(
      EntropyPoolConfig{.producers = 4, .buffer_bytes = 64, .block_bits = 256},
      ideal_factory());
  (void)pool->get_bytes(32);
  pool.reset();  // join all producers
  SUCCEED();
}

TEST(EntropyPool, StopIsIdempotentAndDrains) {
  EntropyPool pool({.producers = 2, .buffer_bytes = 512, .block_bits = 256},
                   ideal_factory());
  (void)pool.get_bytes(64);
  pool.stop();
  pool.stop();
  // After stop, the remaining buffered bytes drain, then it refuses.
  EXPECT_THROW(
      {
        for (;;) (void)pool.get_bytes(1);
      },
      EntropyExhausted);
}

// --- Full quarantine -> reseed -> retire state machine, driven by the
// --- deterministic fault sources in tests/support/fault_sources.h. ------

TEST(EntropyPool, ReseedCuresProducerAtMaxReseedsBoundary) {
  // Producer 0's first `max_reseeds` builds are dead on arrival; build
  // max_reseeds is healthy.  Exactly max_reseeds consecutive alarms is the
  // boundary the policy still tolerates: the producer must survive.
  constexpr std::size_t kMaxReseeds = 3;
  std::atomic<int> builds_of_producer0{0};
  EntropyPool pool(
      {.producers = 2, .buffer_bytes = 2048, .block_bits = 512,
       .max_reseeds = kMaxReseeds},
      [&](std::size_t index, std::uint64_t seed) -> std::unique_ptr<TrngSource> {
        if (index == 0 &&
            builds_of_producer0.fetch_add(1) < static_cast<int>(kMaxReseeds)) {
          return std::make_unique<StuckSource>(seed, 0);
        }
        return std::make_unique<IdealSource>(seed);
      });
  // The quarantine loop needs no consumer: alarmed blocks never reach the
  // buffer, so producer 0 marches through its stuck builds on its own.
  ASSERT_TRUE(eventually([&] {
    return builds_of_producer0.load() >= static_cast<int>(kMaxReseeds) + 1 &&
           pool.quarantine_events() >= kMaxReseeds;
  }));
  EXPECT_EQ(pool.quarantine_events(), kMaxReseeds);
  EXPECT_EQ(pool.reseed_events(), kMaxReseeds);
  EXPECT_EQ(pool.retired_producers(), 0u);
  EXPECT_EQ(pool.healthy_producers(), 2u);
  EXPECT_FALSE(pool.exhausted());
  EXPECT_EQ(pool.get_bytes(512).size(), 512u);  // still serving
}

TEST(EntropyPool, RetiresProducerOneAlarmPastMaxReseeds) {
  // Producer 0 is stuck on every build: alarm number max_reseeds + 1
  // crosses the boundary and the producer is retired permanently.
  constexpr std::size_t kMaxReseeds = 2;
  EntropyPool pool(
      {.producers = 2, .buffer_bytes = 2048, .block_bits = 512,
       .max_reseeds = kMaxReseeds},
      [](std::size_t index, std::uint64_t seed) -> std::unique_ptr<TrngSource> {
        if (index == 0) return std::make_unique<StuckSource>(seed, 0);
        return std::make_unique<IdealSource>(seed);
      });
  ASSERT_TRUE(eventually([&] { return pool.retired_producers() == 1; }));
  EXPECT_EQ(pool.quarantine_events(), kMaxReseeds + 1);
  EXPECT_EQ(pool.reseed_events(), kMaxReseeds);
  EXPECT_EQ(pool.healthy_producers(), 1u);
  EXPECT_FALSE(pool.exhausted());
  const PoolHealthSnapshot snap = pool.snapshot();
  EXPECT_EQ(snap.producers, 2u);
  EXPECT_EQ(snap.retired, 1u);
  EXPECT_EQ(snap.quarantines, kMaxReseeds + 1);
  EXPECT_EQ(snap.reseeds, kMaxReseeds);
  EXPECT_EQ(pool.get_bytes(256).size(), 256u);  // survivor keeps serving
}

TEST(EntropyPool, IntermittentDropoutQuarantinesWithoutRetiring) {
  // Producer 0's first build browns out for 300 bits starting at bit 1000
  // (well past the RCT cutoff of ~24, inside its second 512-bit block);
  // the rebuild is healthy.  One quarantine, one cure, no retirement.
  std::atomic<int> builds_of_producer0{0};
  EntropyPool pool(
      {.producers = 2, .buffer_bytes = 4096, .block_bits = 512},
      [&](std::size_t index, std::uint64_t seed) -> std::unique_ptr<TrngSource> {
        if (index == 0 && builds_of_producer0.fetch_add(1) == 0) {
          return std::make_unique<IntermittentDropoutSource>(
              seed, std::vector<std::uint64_t>{1000}, 300);
        }
        return std::make_unique<IdealSource>(seed);
      });
  ASSERT_TRUE(eventually([&] { return pool.quarantine_events() >= 1; }));
  EXPECT_EQ(pool.quarantine_events(), 1u);
  EXPECT_EQ(pool.reseed_events(), 1u);
  EXPECT_EQ(pool.retired_producers(), 0u);
  EXPECT_EQ(pool.healthy_producers(), 2u);
  EXPECT_EQ(pool.get_bytes(512).size(), 512u);
}

TEST(EntropyPool, BiasedProducerIsCaughtAndRetired) {
  // A source that still toggles but emits ones 95% of the time defeats a
  // repetition-count-only monitor; the adaptive proportion test must
  // catch it.  Biased on every build -> quarantines march to retirement.
  EntropyPool pool(
      {.producers = 2, .buffer_bytes = 2048, .block_bits = 512,
       .max_reseeds = 2},
      [](std::size_t index, std::uint64_t seed) -> std::unique_ptr<TrngSource> {
        if (index == 0) return std::make_unique<BiasedSource>(seed, 0, 0.95);
        return std::make_unique<IdealSource>(seed);
      });
  ASSERT_TRUE(eventually([&] { return pool.retired_producers() == 1; }));
  EXPECT_GE(pool.quarantine_events(), 3u);
  EXPECT_EQ(pool.healthy_producers(), 1u);
  EXPECT_EQ(pool.get_bytes(256).size(), 256u);
}

TEST(EntropyPool, StaggeredRetirementEndsInEntropyExhausted) {
  // Producer 0 is dead on arrival; producer 1 serves ~2.5 KB before its
  // noise dies at bit 20000 and every rebuild is dead too.  The pool must
  // serve the healthy prefix, then retire the last producer and throw —
  // the terminal state of the failure policy.
  std::atomic<int> builds_of_producer1{0};
  EntropyPool pool(
      {.producers = 2, .buffer_bytes = 512, .block_bits = 512,
       .max_reseeds = 1},
      [&](std::size_t index, std::uint64_t seed) -> std::unique_ptr<TrngSource> {
        if (index == 1 && builds_of_producer1.fetch_add(1) == 0) {
          return std::make_unique<StuckSource>(seed, 20000);
        }
        return std::make_unique<StuckSource>(seed, 0);
      });
  std::size_t served = 0;
  EXPECT_THROW(
      {
        for (;;) served += pool.get_bytes(64).size();
      },
      EntropyExhausted);
  EXPECT_GT(served, 0u);          // the healthy prefix was served...
  EXPECT_LE(served, 20000u / 8);  // ...and only the healthy prefix
  EXPECT_EQ(pool.healthy_producers(), 0u);
  EXPECT_EQ(pool.retired_producers(), 2u);
  EXPECT_TRUE(pool.exhausted());
  EXPECT_TRUE(pool.snapshot().exhausted);
  // Per producer: max_reseeds + 1 = 2 alarms, 1 cure-attempt reseed.
  EXPECT_EQ(pool.quarantine_events(), 4u);
  EXPECT_EQ(pool.reseed_events(), 2u);
  // Exhaustion is sticky: later requests must keep refusing.
  EXPECT_THROW(pool.get_bytes(1), EntropyExhausted);
}

TEST(EntropyPool, DhTrngConvenienceFactory) {
  auto pool = EntropyPool::of_dhtrng(
      {.producers = 2, .buffer_bytes = 512, .block_bits = 256},
      {.seed = 99});
  const auto bytes = pool.get_bytes(128);
  EXPECT_EQ(bytes.size(), 128u);
  EXPECT_EQ(pool.healthy_producers(), 2u);
}

TEST(EntropyPool, CertSnapshotClampsGeometryToBlockBits) {
  // block_bits = 768 = 256 * 3: the largest power-of-two divisor is 256,
  // so the default tracker geometry (128, 1024) clamps to (128, 256).
  EntropyPool pool({.producers = 1, .buffer_bytes = 1024, .block_bits = 768},
                   ideal_factory());
  EXPECT_EQ(pool.tracker_config().block_len, 128u);
  EXPECT_EQ(pool.tracker_config().window_bits, 256u);
  const PoolCertSnapshot snap = pool.cert_snapshot();
  EXPECT_TRUE(snap.enabled);
  EXPECT_EQ(snap.tracker.window_bits, 256u);
}

TEST(EntropyPool, CertSnapshotDisabledWhenNotCertifying) {
  EntropyPool pool({.producers = 1, .buffer_bytes = 512, .block_bits = 256,
                    .certify = false},
                   ideal_factory());
  (void)pool.get_bytes(64);
  const PoolCertSnapshot snap = pool.cert_snapshot();
  EXPECT_FALSE(snap.enabled);
  EXPECT_TRUE(snap.producers.empty());
  EXPECT_EQ(snap.merged.bits, 0u);
}

// Concurrency (TSan lane): cert_snapshot() races against live producers
// feeding their trackers and a consumer draining the buffer.  The
// per-producer tracker lock means every snapshot observes block-aligned
// state, so the merge precondition holds in every interleaving.
TEST(EntropyPool, CertSnapshotUnderConcurrentProductionIsConsistent) {
  EntropyPool pool({.producers = 3, .buffer_bytes = 2048, .block_bits = 256},
                   ideal_factory());
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)pool.get_bytes(128);
    }
  });
  for (int i = 0; i < 200; ++i) {
    const PoolCertSnapshot snap = pool.cert_snapshot();
    ASSERT_EQ(snap.producers.size(), 3u);
    std::uint64_t total = 0;
    for (const auto& s : snap.producers) {
      // Whole health-gated blocks only — never a torn mid-block state.
      EXPECT_EQ(s.bits % 256u, 0u);
      total += s.bits;
    }
    // The merge inside cert_snapshot() holds each tracker's lock while
    // folding it in, so the merged view is exactly the concatenation of
    // the per-producer snapshots taken in the same pass.
    EXPECT_EQ(snap.merged.bits, total);
    EXPECT_EQ(snap.merged.windows, total / 256u);
  }
  done.store(true, std::memory_order_release);
  consumer.join();
}

}  // namespace
}  // namespace dhtrng::core
