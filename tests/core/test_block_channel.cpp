#include "core/block_channel.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <semaphore>
#include <span>
#include <thread>
#include <vector>

namespace dhtrng::core {
namespace {

using Bytes = std::vector<std::uint8_t>;

Bytes iota_bytes(std::size_t n, std::uint8_t first) {
  Bytes v(n);
  std::iota(v.begin(), v.end(), first);
  return v;
}

struct CountingDoorbell final : Doorbell {
  std::atomic<int> rings{0};
  void ring() override { rings.fetch_add(1); }
};

/// A consumer thread waiting for bytes the only way the channel offers:
/// try_take, and after every short take wait for the armed doorbell's
/// ring.  Returns once `out` is full, or short once the channel is closed
/// and drained (a short take on a closed channel arms nothing).
std::size_t take_waiting(BlockChannel& ch, std::span<std::uint8_t> out) {
  struct Waiter final : Doorbell {
    std::binary_semaphore rung{0};
    void ring() override { rung.release(); }
  } waiter;
  for (std::size_t got = 0;;) {
    got += ch.try_take(out.subspan(got), &waiter);
    if (got == out.size() || ch.drained()) return got;
    waiter.rung.acquire();
  }
}

/// 4-byte record identifying (producer, sequence); the MPMC tests push one
/// per block and take in multiples of 4, so every take holds whole records.
constexpr std::size_t kRecord = 4;
std::array<std::uint8_t, kRecord> record(int producer, int seq) {
  return {static_cast<std::uint8_t>(producer),
          static_cast<std::uint8_t>(seq >> 8),
          static_cast<std::uint8_t>(seq & 0xff), 0x5a};
}

TEST(BlockChannel, FifoOrderSingleThread) {
  BlockChannel ch(16);
  ASSERT_TRUE(ch.push(iota_bytes(5, 0)));
  ASSERT_TRUE(ch.push(iota_bytes(5, 5)));
  EXPECT_EQ(ch.size(), 10u);
  Bytes out(3);
  for (std::uint8_t expect = 0; expect < 9; expect += 3) {
    ASSERT_EQ(ch.try_take(out), 3u);
    EXPECT_EQ(out, iota_bytes(3, expect));
  }
  ASSERT_EQ(ch.try_take(out), 1u);  // short: only the last byte is left
  EXPECT_EQ(out[0], 9);
  EXPECT_EQ(ch.try_take(out), 0u);
}

TEST(BlockChannel, WraparoundPreservesOrder) {
  BlockChannel ch(8);
  std::uint8_t next_in = 0, next_out = 0;
  // Blocks of 3 against takes of 2: head and tail wrap the 8-byte ring
  // at every offset.
  for (int round = 0; round < 100; ++round) {
    while (ch.capacity() - ch.size() >= 3) {
      ASSERT_TRUE(ch.push(iota_bytes(3, next_in)));
      next_in = static_cast<std::uint8_t>(next_in + 3);
    }
    Bytes out(2);
    ASSERT_EQ(ch.try_take(out), 2u);
    for (std::uint8_t b : out) EXPECT_EQ(b, next_out++);
  }
}

TEST(BlockChannel, TryTakeReturnsShortAndArmsDoorbell) {
  BlockChannel ch(16);
  CountingDoorbell bell;
  ASSERT_TRUE(ch.push(iota_bytes(4, 0)));
  Bytes out(8);
  EXPECT_EQ(ch.try_take(out, &bell), 4u);  // short by 4: armed
  EXPECT_EQ(ch.try_take(out, &bell), 0u);  // short by 8: still armed once
  ASSERT_TRUE(ch.push(iota_bytes(2, 4)));
  EXPECT_EQ(bell.rings.load(), 0);  // 2 buffered: no shortfall covered
  ASSERT_TRUE(ch.push(iota_bytes(2, 6)));
  EXPECT_EQ(bell.rings.load(), 1);  // 4 buffered: the smaller one is
  ASSERT_TRUE(ch.push(iota_bytes(4, 8)));
  EXPECT_EQ(bell.rings.load(), 1);  // one-shot: disarmed by the ring
  EXPECT_EQ(ch.try_take(out, &bell), 8u);  // filled: not armed
  ASSERT_TRUE(ch.push(iota_bytes(4, 12)));
  EXPECT_EQ(bell.rings.load(), 1);
  EXPECT_THROW(ch.push(Bytes(17)), std::invalid_argument);
}

TEST(BlockChannel, FullBufferRingsForShortfallAboveCapacity) {
  // A consumer short by more than the buffer can hold is rung when a
  // producer finds the buffer full, so it drains and makes progress.
  BlockChannel ch(8);
  CountingDoorbell bell;
  Bytes big(32);
  EXPECT_EQ(ch.try_take(big, &bell), 0u);
  ASSERT_TRUE(ch.push(iota_bytes(6, 0)));
  EXPECT_EQ(bell.rings.load(), 0);
  std::thread producer([&] { ASSERT_TRUE(ch.push(iota_bytes(6, 6))); });
  ASSERT_TRUE(
      [&] {
        for (int i = 0; i < 5000 && bell.rings.load() == 0; ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return bell.rings.load() == 1;
      }());
  EXPECT_EQ(ch.try_take(big, &bell), 6u);  // unblocks the producer
  producer.join();
  EXPECT_EQ(bell.rings.load(), 1);
  EXPECT_EQ(ch.try_take(big, &bell), 6u);
}

TEST(BlockChannel, DoorbellRingsOnCloseAndNeverAfter) {
  BlockChannel ch(16);
  CountingDoorbell bell;
  Bytes out(4);
  EXPECT_EQ(ch.try_take(out, &bell), 0u);
  ch.close();
  EXPECT_EQ(bell.rings.load(), 1);
  EXPECT_TRUE(ch.drained());
  EXPECT_EQ(ch.try_take(out, &bell), 0u);  // closed: nothing to arm for
  ch.close();
  EXPECT_EQ(bell.rings.load(), 1);
}

TEST(BlockChannel, BackpressureBlocksProducerUntilWholeBlockFits) {
  BlockChannel ch(8);
  ASSERT_TRUE(ch.push(iota_bytes(6, 0)));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(ch.push(iota_bytes(6, 6)));  // needs 6 free, has 2
    second_pushed.store(true);
  });
  Bytes out(3);
  ASSERT_EQ(ch.try_take(out), 3u);  // 5 free: still short of the block
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_pushed.load());
  EXPECT_EQ(ch.size(), 3u);  // never a partial block
  Bytes one(1);
  ASSERT_EQ(ch.try_take(one), 1u);  // 6 free: the block lands whole
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  Bytes rest(8);
  ASSERT_EQ(ch.try_take(rest), 8u);
  EXPECT_EQ(rest, iota_bytes(8, 4));
}

TEST(BlockChannel, TakeBlocksUntilPush) {
  BlockChannel ch(8);
  std::thread consumer([&] {
    Bytes out(2);
    ASSERT_EQ(take_waiting(ch, out), 2u);  // the doorbell rings on push
    EXPECT_EQ(out[0], 42);
    EXPECT_EQ(out[1], 43);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(ch.push(Bytes{42, 43}));
  consumer.join();
}

TEST(BlockChannel, CloseWakesBlockedConsumerEmptyHanded) {
  BlockChannel ch(8);
  std::thread consumer([&] {
    Bytes out(4);
    EXPECT_EQ(take_waiting(ch, out), 0u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ch.close();
  consumer.join();
}

TEST(BlockChannel, CloseFailsPushesButDrainsTakes) {
  BlockChannel ch(8);
  ASSERT_TRUE(ch.push(Bytes{7, 8}));
  ch.close();
  EXPECT_FALSE(ch.drained());
  EXPECT_FALSE(ch.push(Bytes{9}));
  Bytes out(1);
  ASSERT_EQ(ch.try_take(out), 1u);  // buffered bytes survive the close
  EXPECT_EQ(out[0], 7);
  ASSERT_EQ(ch.try_take(out), 1u);
  EXPECT_EQ(out[0], 8);
  EXPECT_EQ(ch.try_take(out), 0u);
  EXPECT_TRUE(ch.drained());
}

TEST(BlockChannel, ManyProducersManyConsumersDeliverEverythingOnce) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  BlockChannel ch(4 * kRecord);  // small capacity: constant backpressure
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ch, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(ch.push(record(p, i)));
      }
    });
  }
  std::vector<int> seen(kProducers * kPerProducer, 0);
  std::mutex seen_mutex;
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    // Consumer c takes 1..3 records at a time; every take is a multiple of
    // the record size, and so is the buffered count, so records never
    // split between consumers.
    consumers.emplace_back([&, c] {
      Bytes out(kRecord * static_cast<std::size_t>(c + 1));
      for (;;) {
        const std::size_t got = take_waiting(ch, out);
        if (got == 0) return;
        ASSERT_EQ(got % kRecord, 0u);
        std::lock_guard<std::mutex> lock(seen_mutex);
        for (std::size_t r = 0; r < got; r += kRecord) {
          ASSERT_EQ(out[r + 3], 0x5a);
          const int seq = (out[r + 1] << 8) | out[r + 2];
          ++seen[static_cast<std::size_t>(out[r] * kPerProducer + seq)];
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  ch.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(std::accumulate(seen.begin(), seen.end(), 0),
            kProducers * kPerProducer);
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(BlockChannel, PerProducerOrderIsPreserved) {
  // Blocks land whole in publish order, so one consumer reading odd-sized
  // spans reassembles every producer's records contiguous and in order.
  constexpr int kPerProducer = 500;
  BlockChannel ch(2 * kRecord);
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&ch, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(ch.push(record(p, i)));
      }
    });
  }
  std::vector<int> last_seen(3, -1);
  std::thread consumer([&] {
    Bytes stream;
    Bytes out(7);
    for (std::size_t got; (got = take_waiting(ch, out)) != 0;) {
      stream.insert(stream.end(), out.begin(),
                    out.begin() + static_cast<std::ptrdiff_t>(got));
    }
    ASSERT_EQ(stream.size(), 3u * kPerProducer * kRecord);
    for (std::size_t r = 0; r < stream.size(); r += kRecord) {
      ASSERT_EQ(stream[r + 3], 0x5a);
      const std::size_t p = stream[r];
      const int seq = (stream[r + 1] << 8) | stream[r + 2];
      EXPECT_EQ(seq, last_seen[p] + 1);
      last_seen[p] = seq;
    }
  });
  for (auto& t : producers) t.join();
  ch.close();
  consumer.join();
  for (int last : last_seen) EXPECT_EQ(last, kPerProducer - 1);
}

}  // namespace
}  // namespace dhtrng::core
