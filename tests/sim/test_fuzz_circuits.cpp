// Randomized-circuit fuzzing of the simulator: generate random acyclic
// gate networks (plus optional ring loops) with clocks and flip-flops,
// and assert the engine's global invariants — no crash, determinism,
// bounded event counts, monotone per-net edge times.
#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"
#include "support/rng.h"

namespace dhtrng::sim {
namespace {

struct FuzzCircuit {
  Circuit circuit;
  std::vector<std::size_t> dffs;
  std::vector<NetId> watch;
};

FuzzCircuit make_random_circuit(std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  FuzzCircuit fc;
  Circuit& c = fc.circuit;

  const NetId clk = c.add_net("clk");
  c.add_clock(clk, rng.uniform(800.0, 3000.0));
  const NetId en = c.add_net("en");
  c.set_initial(en, true);

  // A few ring oscillators as stimulus.
  std::vector<NetId> sources;
  const int rings = 1 + static_cast<int>(rng.below(3));
  for (int r = 0; r < rings; ++r) {
    const std::string p = "ring" + std::to_string(r);
    const NetId a = c.add_net(p + "_a");
    const NetId b = c.add_net(p + "_b");
    c.add_gate(GateKind::Nand, {en, b}, a, rng.uniform(80.0, 300.0));
    c.add_gate(GateKind::Buf, {a}, b, rng.uniform(80.0, 300.0));
    c.set_initial(a, true);
    sources.push_back(b);
  }

  // Random acyclic combinational layer on top.
  std::vector<NetId> pool = sources;
  pool.push_back(en);
  const int gates = 5 + static_cast<int>(rng.below(20));
  for (int g = 0; g < gates; ++g) {
    const NetId out = c.add_net(std::string("g").append(std::to_string(g)));
    const GateKind kind = static_cast<GateKind>(rng.below(9));
    std::vector<NetId> ins;
    const std::size_t arity = kind == GateKind::Inv || kind == GateKind::Buf
                                  ? 1
                              : kind == GateKind::Mux2 ? 3
                                                       : 2 + rng.below(3);
    for (std::size_t i = 0; i < arity; ++i) {
      ins.push_back(pool[rng.below(pool.size())]);
    }
    c.add_gate(kind, ins, out, rng.uniform(60.0, 400.0));
    pool.push_back(out);
    fc.watch.push_back(out);
  }

  // Flip-flops sampling random nets.
  const int ffs = 1 + static_cast<int>(rng.below(4));
  for (int f = 0; f < ffs; ++f) {
    const NetId q = c.add_net(std::string("q").append(std::to_string(f)));
    fc.dffs.push_back(c.add_dff(clk, pool[rng.below(pool.size())], q));
    pool.push_back(q);
  }
  return fc;
}

class CircuitFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CircuitFuzz, SimulatesWithoutViolatingInvariants) {
  FuzzCircuit fc = make_random_circuit(GetParam());
  ASSERT_NO_THROW(fc.circuit.validate());

  SimConfig cfg;
  cfg.seed = GetParam() ^ 0xabcdef;
  Simulator sim(fc.circuit, cfg);
  for (std::size_t f : fc.dffs) sim.record_dff(f);
  for (NetId n : fc.watch) sim.record_edges(n);

  ASSERT_NO_THROW(sim.run_until(300000.0));
  EXPECT_GE(sim.now(), 300000.0);
  // Event volume bounded (no zero-delay livelock).
  EXPECT_LT(sim.events_processed(), 3000000u);
  // Per-net edge times strictly increase.
  for (NetId n : fc.watch) {
    const auto& edges = sim.edge_times(n);
    for (std::size_t i = 1; i < edges.size(); ++i) {
      ASSERT_LT(edges[i - 1], edges[i]);
    }
  }
  // Every DFF sampled once per clock edge.
  for (std::size_t f : fc.dffs) {
    EXPECT_GT(sim.dff_sample_count(f), 80u);
  }
}

TEST_P(CircuitFuzz, DeterministicReplay) {
  FuzzCircuit fc = make_random_circuit(GetParam());
  SimConfig cfg;
  cfg.seed = GetParam() * 3 + 1;
  Simulator a(fc.circuit, cfg);
  Simulator b(fc.circuit, cfg);
  for (std::size_t f : fc.dffs) {
    a.record_dff(f);
    b.record_dff(f);
  }
  a.run_until(150000.0);
  b.run_until(150000.0);
  EXPECT_EQ(a.events_processed(), b.events_processed());
  EXPECT_EQ(a.total_toggles(), b.total_toggles());
  for (std::size_t f : fc.dffs) {
    EXPECT_EQ(a.samples(f), b.samples(f));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CircuitFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace dhtrng::sim
