#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/ro.h"

namespace dhtrng::sim {
namespace {

SimConfig quiet_config(std::uint64_t seed = 1) {
  SimConfig cfg;
  cfg.seed = seed;
  cfg.gate_jitter = {0.001, 0.0005, 0.0};  // effectively noiseless
  return cfg;
}

TEST(Simulator, InverterRingOscillatesAtExpectedPeriod) {
  Circuit c;
  const NetId en = c.add_net("en");
  c.set_initial(en, true);
  // 3-element ring, 100 ps per element -> period = 2 * 3 * 100 = 600 ps.
  const NetId out = core::build_ring_oscillator(c, "ro", 3, en, 100.0);
  Simulator sim(c, quiet_config());
  sim.run_until(60000.0);
  const double toggles = static_cast<double>(sim.toggle_count(out));
  // ~2 toggles per 600 ps period over 60 ns => ~200.
  EXPECT_NEAR(toggles, 200.0, 10.0);
}

TEST(Simulator, DisabledRingIsQuiet) {
  Circuit c;
  const NetId en = c.add_net("en");  // initial 0 = disabled
  const NetId out = core::build_ring_oscillator(c, "ro", 3, en, 100.0);
  Simulator sim(c, quiet_config());
  sim.run_until(5000.0);
  const std::uint64_t settled = sim.toggle_count(out);
  EXPECT_LE(settled, 4u);  // start-up settles within a few transitions
  sim.run_until(50000.0);
  EXPECT_EQ(sim.toggle_count(out), settled);  // then stays quiet
}

TEST(Simulator, ClockTogglesAtConfiguredPeriod) {
  Circuit c;
  const NetId clk = c.add_net("clk");
  c.add_clock(clk, 1000.0);
  Simulator sim(c, quiet_config());
  sim.run_until(100500.0);
  // 100 periods -> 200 toggles (rising + falling).
  EXPECT_NEAR(static_cast<double>(sim.toggle_count(clk)), 200.0, 3.0);
}

TEST(Simulator, DffCapturesStableData) {
  Circuit c;
  const NetId clk = c.add_net("clk"), d = c.add_net("d"), q = c.add_net("q");
  c.add_clock(clk, 1000.0);
  c.set_initial(d, true);  // stable high forever
  const std::size_t ff = c.add_dff(clk, d, q);
  Simulator sim(c, quiet_config());
  sim.record_dff(ff);
  sim.run_until(10500.0);
  const auto& samples = sim.samples(ff);
  ASSERT_GE(samples.size(), 9u);
  for (std::uint8_t s : samples) EXPECT_EQ(s, 1);
}

TEST(Simulator, DffMetastabilityNearCoincidentEdge) {
  // Drive D from a divider-like toggling gate whose transitions brush the
  // clock edge; with a wide aperture the flip-flop output must show
  // metastable captures.
  Circuit c;
  const NetId en = c.add_net("en");
  c.set_initial(en, true);
  const NetId ro = core::build_ring_oscillator(c, "ro", 3, en, 167.0);
  const NetId clk = c.add_net("clk"), q = c.add_net("q");
  c.add_clock(clk, 1001.0);
  DffTiming t;
  t.aperture_sigma_ps = 40.0;  // wide aperture to force violations
  const std::size_t ff = c.add_dff(clk, ro, q, t);
  SimConfig cfg = quiet_config(3);
  Simulator sim(c, cfg);
  sim.record_dff(ff);
  sim.run_until(2000000.0);
  EXPECT_GT(sim.metastable_samples(), 100u);
}

TEST(Simulator, DeterministicForSameSeed) {
  const auto run = [](std::uint64_t seed) {
    Circuit c;
    const NetId en = c.add_net("en");
    c.set_initial(en, true);
    const NetId ro = core::build_ring_oscillator(c, "ro", 5, en, 120.0);
    const NetId clk = c.add_net("clk"), q = c.add_net("q");
    c.add_clock(clk, 1700.0);
    const std::size_t ff = c.add_dff(clk, ro, q);
    SimConfig cfg;
    cfg.seed = seed;
    Simulator sim(c, cfg);
    sim.record_dff(ff);
    sim.run_until(300000.0);
    return sim.samples(ff);
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

// next_sample() returns the recorded bits in order, advancing time step by
// step like a reader of the full recording would, yet keeps only the
// current step's samples.
TEST(Simulator, NextSampleMatchesFullRecordingAndStaysBounded) {
  Circuit c;
  const NetId en = c.add_net("en");
  c.set_initial(en, true);
  const NetId ro = core::build_ring_oscillator(c, "ro", 5, en, 2000.0);
  const NetId clk = c.add_net("clk"), q = c.add_net("q");
  c.add_clock(clk, 7000.0);
  const std::size_t ff = c.add_dff(clk, ro, q);
  const double step_ps = 2.5 * 7000.0;  // two or three samples per step
  constexpr std::size_t kSamples = 200'000;

  Simulator full(c, SimConfig{});
  full.record_dff(ff);
  while (full.samples(ff).size() < kSamples) {
    full.run_until(full.now() + step_ps);
  }

  Simulator reader(c, SimConfig{});
  reader.record_dff(ff);
  std::size_t ones = 0;
  for (std::size_t i = 0; i < kSamples; ++i) {
    const bool bit = reader.next_sample(ff, step_ps);
    ASSERT_EQ(bit, full.samples(ff)[i] != 0) << "sample " << i;
    ASSERT_LE(reader.samples(ff).size(), 3u) << "sample " << i;
    ones += bit ? 1 : 0;
  }
  EXPECT_EQ(reader.dff_sample_count(ff), full.dff_sample_count(ff));
  EXPECT_GT(ones, kSamples / 4);  // a live oscillator, not a constant
  EXPECT_LT(ones, kSamples * 3 / 4);
}

TEST(Simulator, JitterSpreadsRingPeriods) {
  // With strong jitter the toggle counts of two identical rings diverge.
  Circuit c;
  const NetId en = c.add_net("en");
  c.set_initial(en, true);
  const NetId r1 = core::build_ring_oscillator(c, "r1", 3, en, 100.0);
  const NetId r2 = core::build_ring_oscillator(c, "r2", 3, en, 100.0);
  SimConfig cfg;
  cfg.seed = 11;
  cfg.gate_jitter = {8.0, 2.0, 0.0};
  Simulator sim(c, cfg);
  sim.run_until(300000.0);
  EXPECT_NE(sim.toggle_count(r1), sim.toggle_count(r2));
}

TEST(Simulator, EventBudgetGuards) {
  Circuit c;
  const NetId en = c.add_net("en");
  c.set_initial(en, true);
  core::build_ring_oscillator(c, "ro", 3, en, 100.0);
  SimConfig cfg = quiet_config();
  cfg.max_events = 100;
  Simulator sim(c, cfg);
  EXPECT_THROW(sim.run_until(1e9), std::runtime_error);
}

TEST(Simulator, MuxHoldLoopFreezes) {
  // RO2 structure: when sel = 1 the loop holds its value (no toggling).
  Circuit c;
  const NetId sel = c.add_net("sel");
  c.set_initial(sel, true);
  const NetId r2 = c.add_net("r2"), inv = c.add_net("inv");
  c.add_gate(GateKind::Inv, {r2}, inv, 100.0);
  c.add_gate(GateKind::Mux2, {sel, inv, r2}, r2, 80.0);
  Simulator sim(c, quiet_config());
  sim.run_until(50000.0);
  EXPECT_LE(sim.toggle_count(r2), 2u);
}

TEST(Simulator, MuxOscillateLoopRuns) {
  Circuit c;
  const NetId sel = c.add_net("sel");  // 0 -> inverter path
  const NetId r2 = c.add_net("r2"), inv = c.add_net("inv");
  c.add_gate(GateKind::Inv, {r2}, inv, 100.0);
  c.add_gate(GateKind::Mux2, {sel, inv, r2}, r2, 80.0);
  Simulator sim(c, quiet_config());
  sim.run_until(50000.0);
  // period = 2 * (100 + 80) = 360 ps -> ~139 periods -> ~278 toggles.
  EXPECT_NEAR(static_cast<double>(sim.toggle_count(r2)), 278.0, 20.0);
}

TEST(Simulator, TotalTogglesAggregates) {
  Circuit c;
  const NetId en = c.add_net("en");
  c.set_initial(en, true);
  const NetId out = core::build_ring_oscillator(c, "ro", 3, en, 100.0);
  Simulator sim(c, quiet_config());
  sim.run_until(30000.0);
  EXPECT_GE(sim.total_toggles(), sim.toggle_count(out));
  EXPECT_GT(sim.events_processed(), 0u);
}

TEST(Simulator, TimeAdvancesToRequestedInstant) {
  Circuit c;
  c.add_net("idle");
  Simulator sim(c, quiet_config());
  sim.run_until(1234.5);
  EXPECT_DOUBLE_EQ(sim.now(), 1234.5);
}

}  // namespace
}  // namespace dhtrng::sim
