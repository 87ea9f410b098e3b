// Power-cycle look-ahead in core::GateSampler: once two cycles read the
// same number of bits, restart() hands the next cycles to worker threads
// and later adopts them already simulated.  These tests pin that this
// changes no bit, that it really engages, that a sampler can be moved or
// destroyed with cycles in flight, and that samplers share one pool.  They
// ride the `concurrency` label, so the TSan lane runs them too.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <filesystem>
#endif

#include "core/gate_sampler.h"
#include "core/netlist.h"
#include "core/zoo/hbn_trng.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace dhtrng::core {
namespace {

constexpr double kClockMhz = 600.0;
constexpr double kDtPs = 1e6 / kClockMhz;
constexpr std::uint64_t kSeed = 42;

struct Netlist {
  sim::Circuit circuit;
  std::size_t out_dff = 0;
};

Netlist build(const std::string& name) {
  const fpga::DeviceModel device = fpga::DeviceModel::artix7();
  if (name == "hbn") {
    HbnTrngNetlist n = build_hbn_trng_netlist(device, kClockMhz);
    return {std::move(n.circuit), n.out_dff};
  }
  DhTrngNetlist n = build_dhtrng_netlist(device, kClockMhz);
  return {std::move(n.circuit), n.out_dff};
}

GateSampler make_sampler(const std::string& name, noise::NoiseMode mode,
                         std::uint64_t seed = kSeed) {
  const fpga::DeviceModel device = fpga::DeviceModel::artix7();
  Netlist n = build(name);
  return GateSampler(std::move(n.circuit), n.out_dff, kDtPs, device,
                     device.scaling({}), mode, seed);
}

/// The first `bits` samples of power cycle `cycle`, from a fresh simulator
/// seeded as the restart policy says (cycle 0: the seed itself).
std::vector<bool> fresh_cycle(const std::string& name, noise::NoiseMode mode,
                              std::uint64_t cycle, std::size_t bits) {
  const fpga::DeviceModel device = fpga::DeviceModel::artix7();
  const Netlist n = build(name);
  sim::SimConfig cfg;
  cfg.seed = cycle == 0 ? kSeed : support::SplitMix64(kSeed + cycle).next();
  cfg.gate_jitter = device.gate_jitter;
  cfg.scaling = device.scaling({});
  cfg.noise_mode = mode;
  sim::Simulator reference(n.circuit, cfg);
  reference.record_dff(n.out_dff);
  std::vector<bool> out;
  for (std::size_t i = 0; i < bits; ++i) {
    out.push_back(reference.next_sample(n.out_dff, kDtPs));
  }
  return out;
}

std::vector<bool> read(GateSampler& sampler, std::size_t bits) {
  std::vector<bool> out;
  for (std::size_t i = 0; i < bits; ++i) out.push_back(sampler.next_bit());
  return out;
}

/// Reads `pattern` bits per cycle for as many cycles as it has entries,
/// restarting between them; returns the number of restarts made.
std::uint64_t run_pattern(GateSampler& sampler,
                          const std::vector<std::size_t>& pattern) {
  for (std::size_t c = 0; c < pattern.size(); ++c) {
    if (c > 0) sampler.restart();
    read(sampler, pattern[c]);
  }
  return pattern.size() - 1;
}

struct Model {
  const char* netlist;
  noise::NoiseMode mode;
};

class GateLookahead : public ::testing::TestWithParam<Model> {};

// Steady runs (the look-ahead engages and is adopted), a longer cycle than
// the queued ones were run for, shorter ones, and a single odd cycle that
// breaks the pattern; every cycle's bits are the fresh simulator's.
TEST_P(GateLookahead, EveryCycleEqualsAFreshSimulator) {
  const Model m = GetParam();
  std::vector<std::size_t> lengths;
  for (const auto& [n, bits] : std::vector<std::pair<int, std::size_t>>{
           {5, 64}, {2, 100}, {4, 20}, {1, 300}, {6, 64}}) {
    lengths.insert(lengths.end(), static_cast<std::size_t>(n), bits);
  }
  GateSampler sampler = make_sampler(m.netlist, m.mode);
  for (std::uint64_t r = 0; r < lengths.size(); ++r) {
    if (r > 0) sampler.restart();
    ASSERT_EQ(read(sampler, lengths[r]),
              fresh_cycle(m.netlist, m.mode, r, lengths[r]))
        << m.netlist << ", power cycle " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    NetlistsAndNoiseModes, GateLookahead,
    ::testing::Values(Model{"dhtrng", noise::NoiseMode::Exact},
                      Model{"dhtrng", noise::NoiseMode::Fast},
                      Model{"hbn", noise::NoiseMode::Exact},
                      Model{"hbn", noise::NoiseMode::Fast}),
    [](const ::testing::TestParamInfo<Model>& p) {
      return std::string(p.param.netlist) +
             (p.param.mode == noise::NoiseMode::Fast ? "Fast" : "Exact");
    });

// Fails if the look-ahead silently stops engaging: after a fixed-length
// pattern, the simulator restart() adopts has run before any bit of its
// cycle is read.  A worker may not have started the cycle yet when
// restart() comes (restart() then takes it back unrun), so each attempt
// gives the workers longer.
TEST(GateLookaheadEngagement, AdoptedCycleHasAlreadyRun) {
  if (support::ThreadPool::hardware_threads() < 2) {
    GTEST_SKIP() << "one hardware thread: no look-ahead";
  }
  GateSampler sampler = make_sampler("dhtrng", noise::NoiseMode::Fast);
  run_pattern(sampler, {16, 16, 16});
  bool ran_ahead = false;
  for (int attempt = 1; attempt <= 20 && !ran_ahead; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10 * attempt));
    sampler.restart();
    ran_ahead = sampler.simulator().events_processed() > 0;
    read(sampler, 16);
  }
  EXPECT_TRUE(ran_ahead);
}

// Moving a sampler, assigning over one and destroying either with cycles in
// flight neither hangs nor touches freed memory (run it under ASan), and
// the moved-to sampler goes on with the right cycles.
TEST(GateLookaheadEngagement, MoveAndDestroyWithCyclesInFlight) {
  const noise::NoiseMode mode = noise::NoiseMode::Fast;
  constexpr std::size_t kLong = 2000;  // long enough to be mid-run
  std::uint64_t restarts = 0;
  GateSampler moved_to = [&] {
    GateSampler sampler = make_sampler("dhtrng", mode);
    restarts = run_pattern(sampler, {kLong, kLong, kLong});
    return GateSampler(std::move(sampler));  // the moved-from one dies here
  }();
  moved_to.restart();
  EXPECT_EQ(read(moved_to, 64), fresh_cycle("dhtrng", mode, restarts + 1, 64));

  GateSampler other = make_sampler("dhtrng", mode, kSeed + 1);
  run_pattern(other, {kLong, kLong, kLong});
  other = std::move(moved_to);  // other's own cycles are settled first
  other.restart();
  EXPECT_EQ(read(other, 64), fresh_cycle("dhtrng", mode, restarts + 2, 64));

  GateSampler dropped = make_sampler("dhtrng", mode);
  run_pattern(dropped, {kLong, kLong, kLong});
}  // `other` and `dropped` are destroyed with cycles queued or running

#if defined(__linux__)
std::size_t thread_count() {
  return static_cast<std::size_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/task"),
      std::filesystem::directory_iterator{}));
}
#endif

// All samplers share one pool of D = min(3, hardware threads - 1) workers:
// eight samplers looking ahead at once add at most D threads.
TEST(GateLookaheadEngagement, EightSamplersShareOnePool) {
#if defined(__linux__)
  const std::size_t depth =
      std::min<std::size_t>(3, support::ThreadPool::hardware_threads() - 1);
  // A sanitizer runtime may start a helper thread with the program's
  // first thread; start one first so `before` counts it.
  std::thread([] {}).join();
  const std::size_t before = thread_count();
  std::vector<GateSampler> samplers;
  for (std::uint64_t i = 0; i < 8; ++i) {
    samplers.push_back(make_sampler("dhtrng", noise::NoiseMode::Fast, i));
    run_pattern(samplers.back(), {500, 500, 500});
  }
  EXPECT_LE(thread_count(), before + depth);
#else
  GTEST_SKIP() << "counts threads in /proc/self/task";
#endif
}

}  // namespace
}  // namespace dhtrng::core
