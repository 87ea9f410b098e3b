#include "core/entropy_pool.h"

#include <algorithm>
#include <semaphore>
#include <utility>

#include "core/dhtrng.h"
#include "support/rng.h"

namespace dhtrng::core {

EntropyPool::EntropyPool(EntropyPoolConfig config, SourceFactory factory)
    : config_(config),
      factory_(std::move(factory)),
      buffer_(config.buffer_bytes) {
  if (config_.producers == 0) {
    throw std::invalid_argument("EntropyPool: producers == 0");
  }
  if (config_.block_bits == 0 || config_.block_bits % 8 != 0) {
    throw std::invalid_argument("EntropyPool: block_bits must be a positive "
                                "multiple of 8");
  }
  if (config_.buffer_bytes < config_.block_bits / 8) {
    // Blocks are published whole; one that cannot fit would never land.
    throw std::invalid_argument("EntropyPool: buffer_bytes must hold at "
                                "least one block");
  }
  // Clamp the tracker geometry to the largest power of two dividing
  // block_bits (>= 8 since block_bits is a multiple of 8): producers feed
  // whole blocks, so this keeps every tracker permanently block- and
  // window-aligned and the pool-wide merge exact.
  tracker_config_ = config_.tracker;
  const std::size_t pow2_divisor =
      config_.block_bits & (~config_.block_bits + 1);
  tracker_config_.block_len =
      std::min(tracker_config_.block_len, pow2_divisor);
  tracker_config_.window_bits =
      std::min(tracker_config_.window_bits, pow2_divisor);
  states_.reserve(config_.producers);
  for (std::size_t i = 0; i < config_.producers; ++i) {
    auto state = std::make_unique<ProducerState>(config_.min_entropy_per_bit,
                                                 tracker_config_);
    state->source = factory_(i, derived_seed(i, 0));
    states_.push_back(std::move(state));
  }
  // Start threads only once every state slot exists (producers index into
  // states_ concurrently).
  for (std::size_t i = 0; i < config_.producers; ++i) {
    states_[i]->thread = std::thread([this, i] { producer_loop(i); });
  }
}

EntropyPool EntropyPool::of_dhtrng(EntropyPoolConfig config, DhTrngConfig core) {
  return EntropyPool(config, [core](std::size_t, std::uint64_t seed) {
    DhTrngConfig per_producer = core;
    per_producer.seed = seed;
    return std::make_unique<DhTrng>(per_producer);
  });
}

EntropyPool::~EntropyPool() { stop(); }

std::uint64_t EntropyPool::derived_seed(std::size_t index,
                                        std::uint64_t sequence) const {
  // One SplitMix64 stream per pool; producer `index` owns the stream
  // positions index, producers+index, 2*producers+index, ... so initial and
  // reseed seeds never collide across producers.
  support::SplitMix64 sm(config_.seed);
  std::uint64_t value = 0;
  const std::uint64_t steps = sequence * config_.producers + index + 1;
  for (std::uint64_t i = 0; i < steps; ++i) value = sm.next();
  return value;
}

void EntropyPool::producer_loop(std::size_t index) {
  ProducerState& st = *states_[index];
  support::BitStream bits;
  bits.reserve(config_.block_bits);
  std::vector<std::uint8_t> block(config_.block_bits / 8);

  while (!stopping_.load(std::memory_order_acquire)) {
    // Generate and health-test one block.  The stream's words are already
    // the RCT/APT's LSB-first 64-sample feed (the tail word carries the
    // remaining block_bits % 64 samples).  The monitor is sticky once
    // alarmed, so `healthy` reflects the whole block.
    bits.clear();
    st.source->generate(bits, config_.block_bits);
    bool healthy = true;
    std::size_t left = config_.block_bits;
    for (const std::uint64_t word : bits.words()) {
      const std::size_t n = std::min<std::size_t>(left, 64);
      healthy = st.monitor.feed_word(word, n) && healthy;
      left -= n;
    }

    if (!healthy) {
      quarantines_.fetch_add(1, std::memory_order_relaxed);
      if (++st.consecutive_alarms > config_.max_reseeds) {
        // Reseeding did not cure it: the physical source is gone.  Retire;
        // the last producer standing closes the buffer so consumers can
        // observe exhaustion instead of blocking forever.
        st.retired.store(true, std::memory_order_release);
        if (retired_count_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            states_.size()) {
          buffer_.close();
        }
        return;
      }
      // Counted before the rebuild, so an observer that sees the new
      // source being built also sees the reseed.
      reseeds_.fetch_add(1, std::memory_order_relaxed);
      st.source = factory_(index, derived_seed(index, ++st.reseed_sequence));
      st.monitor.reset();
      continue;
    }

    st.consecutive_alarms = 0;
    bits.pack_bytes(block);
    {
      // The block passed the health gate, so it is part of the served
      // stream — exactly what the online certification tracks.  Whole
      // blocks only, under the lock, so cert_snapshot() always observes
      // block-aligned tracker state.
      std::lock_guard<std::mutex> lock(st.tracker_mutex);
      st.tracker.feed_bytes(block.data(), block.size());
    }
    // Counted before publishing so the counter never trails what
    // consumers have already taken; a block dropped at stop is uncounted.
    bytes_produced_.fetch_add(block.size(), std::memory_order_relaxed);
    if (!buffer_.push(block)) {  // pool stopped while we were blocked
      bytes_produced_.fetch_sub(block.size(), std::memory_order_relaxed);
      return;
    }
  }
}

std::vector<std::uint8_t> EntropyPool::get_bytes(std::size_t n) {
  // A blocking wrapper over try_get_bytes.  Every short take either arms
  // the doorbell (which is then rung exactly once) or, with the pool
  // closed and drained, throws — so waiting after each short take means
  // the stack doorbell is never left armed when this returns or throws.
  struct Waiter final : Doorbell {
    std::binary_semaphore rung{0};
    void ring() override { rung.release(); }
  } waiter;
  std::vector<std::uint8_t> out(n);
  for (std::size_t got = 0;;) {
    got += try_get_bytes(std::span<std::uint8_t>(out).subspan(got), &waiter);
    if (got == n) return out;
    waiter.rung.acquire();
  }
}

std::size_t EntropyPool::try_get_bytes(std::span<std::uint8_t> out,
                                       Doorbell* doorbell) {
  const std::size_t got = buffer_.try_take(out, doorbell);
  // A short take left the buffer empty; closed on top of that means no
  // byte will ever arrive (drained() is monotone, so no race either way).
  if (got < out.size() && buffer_.drained()) throw EntropyExhausted();
  return got;
}

void EntropyPool::stop() {
  stopping_.store(true, std::memory_order_release);
  buffer_.close();
  for (auto& st : states_) {
    if (st->thread.joinable()) st->thread.join();
  }
}

std::uint64_t EntropyPool::quarantine_events() const {
  return quarantines_.load(std::memory_order_relaxed);
}

std::uint64_t EntropyPool::bytes_produced() const {
  return bytes_produced_.load(std::memory_order_relaxed);
}

PoolCertSnapshot EntropyPool::cert_snapshot() const {
  PoolCertSnapshot snap;
  snap.tracker = tracker_config_;
  stats::streaming::SourceTracker merged(tracker_config_);
  snap.producers.reserve(states_.size());
  for (const auto& st : states_) {
    std::lock_guard<std::mutex> lock(st->tracker_mutex);
    snap.producers.push_back(st->tracker.snapshot());
    // Exact merge: every tracker holds whole blocks, and the clamped
    // geometry divides block_bits, so the alignment precondition always
    // holds.
    merged.merge(st->tracker);
  }
  snap.merged = merged.snapshot();
  return snap;
}

PoolHealthSnapshot EntropyPool::snapshot() const {
  PoolHealthSnapshot snap;
  snap.producers = states_.size();
  snap.retired = retired_count_.load(std::memory_order_acquire);
  snap.healthy = snap.producers - snap.retired;
  snap.quarantines = quarantine_events();
  snap.reseeds = reseeds_.load(std::memory_order_relaxed);
  snap.bytes_produced = bytes_produced();
  snap.exhausted = snap.retired == snap.producers;
  return snap;
}

}  // namespace dhtrng::core
