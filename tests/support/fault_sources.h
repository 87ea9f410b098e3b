// Deterministic fault-injection TrngSource wrappers for exercising the
// failure policy end to end: the EntropyPool quarantine -> reseed ->
// retire state machine and the service degradation ladder built on it.
//
// Every failure is scheduled on the source's own bit counter — a seed
// plus explicit trigger-bit indices, never wall-clock time — so a given
// (seed, schedule) pair produces the identical bit sequence on every run
// and machine, and the tests can reason exactly about which health-test
// block alarms.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/entropy_pool.h"
#include "core/trng.h"
#include "support/rng.h"

namespace dhtrng::testsupport {

/// Seeded pseudo-random source standing in for a healthy TRNG (orders of
/// magnitude faster than the physical models — keeps tests tight).
class IdealSource final : public dhtrng::core::TrngSource {
 public:
  explicit IdealSource(std::uint64_t seed) : rng_(seed) {}
  std::string name() const override { return "ideal"; }
  bool next_bit() override { return rng_.bernoulli(0.5); }
  void restart() override {}
  dhtrng::sim::ResourceCounts resources() const override { return {}; }
  double clock_mhz() const override { return 100.0; }
  dhtrng::fpga::ActivityEstimate activity() const override { return {}; }

 private:
  dhtrng::support::Xoshiro256 rng_;
};

/// Healthy Bernoulli(1/2) bits until bit index `fail_at_bit`, then stuck
/// at `stuck_value` forever — a ring oscillator that died mid-life.
/// `fail_at_bit == 0` models a source dead on arrival.
class StuckSource final : public dhtrng::core::TrngSource {
 public:
  StuckSource(std::uint64_t seed, std::uint64_t fail_at_bit,
              bool stuck_value = false)
      : rng_(seed), fail_at_(fail_at_bit), stuck_(stuck_value) {}
  std::string name() const override {
    return stuck_ ? "stuck-at-1" : "stuck-at-0";
  }
  bool next_bit() override {
    const std::uint64_t i = bit_++;
    if (i >= fail_at_) return stuck_;
    return rng_.bernoulli(0.5);
  }
  void restart() override {}
  dhtrng::sim::ResourceCounts resources() const override { return {}; }
  double clock_mhz() const override { return 100.0; }
  dhtrng::fpga::ActivityEstimate activity() const override { return {}; }

 private:
  dhtrng::support::Xoshiro256 rng_;
  std::uint64_t fail_at_;
  bool stuck_;
  std::uint64_t bit_ = 0;
};

/// Healthy until `fail_at_bit`, then heavily biased Bernoulli(`p_one`) —
/// a locked loop or supply-coupled ring that still toggles but has lost
/// its entropy.  The APT (not the RCT) is the test that must catch it.
class BiasedSource final : public dhtrng::core::TrngSource {
 public:
  BiasedSource(std::uint64_t seed, std::uint64_t fail_at_bit, double p_one)
      : rng_(seed), fail_at_(fail_at_bit), p_one_(p_one) {}
  std::string name() const override { return "biased"; }
  bool next_bit() override {
    const std::uint64_t i = bit_++;
    return rng_.bernoulli(i >= fail_at_ ? p_one_ : 0.5);
  }
  void restart() override {}
  dhtrng::sim::ResourceCounts resources() const override { return {}; }
  double clock_mhz() const override { return 100.0; }
  dhtrng::fpga::ActivityEstimate activity() const override { return {}; }

 private:
  dhtrng::support::Xoshiro256 rng_;
  std::uint64_t fail_at_;
  double p_one_;
  std::uint64_t bit_ = 0;
};

/// Healthy except inside scheduled dropout windows [start, start +
/// `dropout_bits`) for each start in `dropout_starts` (bit indices,
/// ascending), where the output sticks at `stuck_value` — intermittent
/// brown-outs that should quarantine without retiring a producer whose
/// rebuilds come back healthy.
class IntermittentDropoutSource final : public dhtrng::core::TrngSource {
 public:
  IntermittentDropoutSource(std::uint64_t seed,
                            std::vector<std::uint64_t> dropout_starts,
                            std::uint64_t dropout_bits,
                            bool stuck_value = false)
      : rng_(seed),
        starts_(std::move(dropout_starts)),
        dropout_bits_(dropout_bits),
        stuck_(stuck_value) {
    std::sort(starts_.begin(), starts_.end());
  }
  std::string name() const override { return "intermittent-dropout"; }
  bool next_bit() override {
    const std::uint64_t i = bit_++;
    // Consume the PRNG on every bit so the healthy stream around a
    // dropout is independent of the schedule.
    const bool healthy_bit = rng_.bernoulli(0.5);
    while (next_window_ < starts_.size() &&
           i >= starts_[next_window_] + dropout_bits_) {
      ++next_window_;
    }
    const bool in_dropout = next_window_ < starts_.size() &&
                            i >= starts_[next_window_] &&
                            i < starts_[next_window_] + dropout_bits_;
    return in_dropout ? stuck_ : healthy_bit;
  }
  void restart() override {}
  dhtrng::sim::ResourceCounts resources() const override { return {}; }
  double clock_mhz() const override { return 100.0; }
  dhtrng::fpga::ActivityEstimate activity() const override { return {}; }

 private:
  dhtrng::support::Xoshiro256 rng_;
  std::vector<std::uint64_t> starts_;
  std::uint64_t dropout_bits_;
  bool stuck_;
  std::uint64_t bit_ = 0;
  std::size_t next_window_ = 0;
};

/// Gate shared between a test and its StallingSources, counted in bits:
/// every wait() takes one permit and blocks while none is left.
/// release(n) grants n more permits; release() opens the gate for good.
class Latch {
 public:
  void release(std::uint64_t permits) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      permits_ += permits;
    }
    cv_.notify_all();
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
  }
  void wait() {
    if (open_.load(std::memory_order_acquire)) return;
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] {
      return open_.load(std::memory_order_acquire) || permits_ > 0;
    });
    if (!open_.load(std::memory_order_acquire)) --permits_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<bool> open_{false};
  std::uint64_t permits_ = 0;
};

/// Healthy Bernoulli(1/2) bits (the IdealSource stream for the same seed),
/// each emitted only against a `latch` permit: a pool producer over it
/// publishes exactly the blocks the test pays for, so a test holds the
/// pool empty (or one block full) for as long as it needs — never on a
/// timer.
class StallingSource final : public dhtrng::core::TrngSource {
 public:
  StallingSource(std::uint64_t seed, std::shared_ptr<Latch> latch)
      : rng_(seed), latch_(std::move(latch)) {}
  std::string name() const override { return "stalling"; }
  bool next_bit() override {
    latch_->wait();
    return rng_.bernoulli(0.5);
  }
  void restart() override {}
  dhtrng::sim::ResourceCounts resources() const override { return {}; }
  double clock_mhz() const override { return 100.0; }
  dhtrng::fpga::ActivityEstimate activity() const override { return {}; }

 private:
  dhtrng::support::Xoshiro256 rng_;
  std::shared_ptr<Latch> latch_;
};

/// Decorator scheduling a fault onto any real TrngSource: passes the
/// wrapped source's bits through until bit index `fail_at_bit`, then
/// either sticks at `stuck_value` (p_one < 0) or emits Bernoulli(`p_one`)
/// from an internal PRNG.  This is how the architecture-agnostic pool /
/// service batteries (test_zoo_pool, test_zoo_service) inject the exact
/// same failure schedules into every zoo architecture that StuckSource /
/// BiasedSource provide for the synthetic ideal source.  The failure is
/// scheduled on this wrapper's own bit counter, so it is bit-exact
/// regardless of what the inner source does.
class DegradingSource final : public dhtrng::core::TrngSource {
 public:
  DegradingSource(std::unique_ptr<dhtrng::core::TrngSource> inner,
                  std::uint64_t fail_at_bit, double p_one = -1.0,
                  bool stuck_value = false, std::uint64_t bias_seed = 0x5eed)
      : inner_(std::move(inner)),
        rng_(bias_seed),
        fail_at_(fail_at_bit),
        p_one_(p_one),
        stuck_(stuck_value) {}
  std::string name() const override { return inner_->name() + "+fault"; }
  bool next_bit() override {
    const std::uint64_t i = bit_++;
    if (i < fail_at_) return inner_->next_bit();
    if (p_one_ < 0.0) return stuck_;
    return rng_.bernoulli(p_one_);
  }
  void restart() override { inner_->restart(); }
  dhtrng::sim::ResourceCounts resources() const override {
    return inner_->resources();
  }
  double clock_mhz() const override { return inner_->clock_mhz(); }
  double throughput_mbps() const override {
    return inner_->throughput_mbps();
  }
  dhtrng::fpga::ActivityEstimate activity() const override {
    return inner_->activity();
  }

 private:
  std::unique_ptr<dhtrng::core::TrngSource> inner_;
  dhtrng::support::Xoshiro256 rng_;
  std::uint64_t fail_at_;
  double p_one_;
  bool stuck_;
  std::uint64_t bit_ = 0;
};

/// One producer's scheduled death, shared by every source the pool builds
/// for it.  A rebuild after a false health alarm keeps spending the same
/// count of healthy bits where the last build stopped, and every rebuild
/// after the death is dead on arrival — so a chance alarm in a healthy
/// stream costs one quarantine, never the whole schedule.  A life built
/// unstarted spends nothing until start(), which lets a test chain one
/// producer's countdown to another's death instead of to how fast the
/// producer threads happen to run.  spend() and over() belong to the
/// owning producer's thread; start() may come from any thread.
class FaultLife {
 public:
  explicit FaultLife(std::uint64_t healthy_bits, bool started = true)
      : left_(healthy_bits), started_(started) {}
  void start() { started_.store(true, std::memory_order_release); }
  /// Spend one bit of life; false once the life is over.
  bool spend() {
    if (!started_.load(std::memory_order_acquire)) return true;
    if (left_ == 0) return false;
    --left_;
    return true;
  }
  bool over() const {
    return started_.load(std::memory_order_acquire) && left_ == 0;
  }

 private:
  std::uint64_t left_;
  std::atomic<bool> started_;
};

/// The wrapped source's bits while `life` lasts, then stuck at 0.
class MortalSource final : public dhtrng::core::TrngSource {
 public:
  MortalSource(std::unique_ptr<dhtrng::core::TrngSource> inner,
               std::shared_ptr<FaultLife> life)
      : inner_(std::move(inner)), life_(std::move(life)) {}
  std::string name() const override { return inner_->name() + "+mortal"; }
  bool next_bit() override { return life_->spend() && inner_->next_bit(); }
  void restart() override { inner_->restart(); }
  dhtrng::sim::ResourceCounts resources() const override {
    return inner_->resources();
  }
  double clock_mhz() const override { return inner_->clock_mhz(); }
  dhtrng::fpga::ActivityEstimate activity() const override {
    return inner_->activity();
  }

 private:
  std::unique_ptr<dhtrng::core::TrngSource> inner_;
  std::shared_ptr<FaultLife> life_;
};

/// SourceFactory for the two-producer degradation-ladder tests.  Producer
/// 0 lives `first_bits` healthy bits; producer 1 lives `second_bits` more
/// once producer 0's dead rebuild is built, i.e. once producer 0 is about
/// to retire.  The ladder's DEGRADED phase then spans producer 1's whole
/// remaining life however the producer threads are paced.  `healthy`
/// builds, from a pool-derived seed, the source each life wraps.
inline std::function<std::unique_ptr<dhtrng::core::TrngSource>(
    std::size_t, std::uint64_t)>
staggered_death_factory(
    std::function<std::unique_ptr<dhtrng::core::TrngSource>(std::uint64_t)>
        healthy,
    std::uint64_t first_bits, std::uint64_t second_bits) {
  auto first = std::make_shared<FaultLife>(first_bits);
  auto second = std::make_shared<FaultLife>(second_bits, false);
  return [=](std::size_t index, std::uint64_t seed)
             -> std::unique_ptr<dhtrng::core::TrngSource> {
    if (index == 0 && first->over()) second->start();
    return std::make_unique<MortalSource>(healthy(seed),
                                          index == 0 ? first : second);
  };
}

/// SourceFactory of IdealSource producers, seeded from the pool.
inline dhtrng::core::EntropyPool::SourceFactory ideal_factory() {
  return [](std::size_t, std::uint64_t seed) {
    return std::make_unique<IdealSource>(seed);
  };
}

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

}  // namespace dhtrng::testsupport
