// Differential fuzzing of the event engine: every random netlist runs on the
// production simulator and on the reference binary-heap engine
// (tests/support/sim_reference.h) with the same (circuit, config, seed), and
// the applied-event streams must match event for event — same times, same
// sequence numbers, same nets, same values.  This is the strongest form of
// the determinism contract: the sorted run is a faster container for the
// (time, seq) order, never a different order.
//
// Labeled `slow` (see tests/CMakeLists.txt): 100+ netlists x 4 seeds is a
// few seconds of work, which the default ctest lane doesn't need to pay on
// every run.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/simulator.h"
#include "support/rng.h"
#include "support/sim_reference.h"

namespace dhtrng::sim {
namespace {

// Same construction as tests/sim/test_fuzz_circuits.cpp, reproduced here so
// the two fuzzers can evolve their circuit distributions independently.
Circuit make_random_circuit(std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  Circuit c;

  const NetId clk = c.add_net("clk");
  c.add_clock(clk, rng.uniform(800.0, 3000.0));
  const NetId en = c.add_net("en");
  c.set_initial(en, true);

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
  }

  const int ffs = 1 + static_cast<int>(rng.below(4));
  for (int f = 0; f < ffs; ++f) {
    const NetId q = c.add_net(std::string("q").append(std::to_string(f)));
    c.add_dff(clk, pool[rng.below(pool.size())], q);
    pool.push_back(q);
  }
  return c;
}

class DifferentialFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialFuzz, SchedulersAgreeEventForEvent) {
  const std::uint64_t netlist_seed = GetParam();
  const Circuit circuit = make_random_circuit(netlist_seed);
  for (std::uint64_t sim_seed : {1ull, 42ull, 1234ull, 0xdeadbeefull}) {
    SimConfig cfg;
    cfg.seed = sim_seed;
    ASSERT_EQ(compare_with_reference(circuit, cfg, 60000.0), "")
        << "netlist seed " << netlist_seed << " sim seed " << sim_seed;
  }
}

// 100 random netlists x 4 seeds = 400 differential runs.
INSTANTIATE_TEST_SUITE_P(Netlists, DifferentialFuzz,
                         ::testing::Range<std::uint64_t>(1, 101));

}  // namespace
}  // namespace dhtrng::sim
