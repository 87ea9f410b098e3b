// Differential fuzzing of the two event engines: every random netlist runs
// under both the sorted-run scheduler and the reference binary heap with the
// same (circuit, config, seed), and the applied-event streams must match
// event for event — same times, same sequence numbers, same nets, same
// values.  This is the strongest form of the determinism contract: the
// sorted run is a faster container for the (time, seq) order, never a
// different order.
//
// Labeled `slow` (see tests/CMakeLists.txt): 100+ netlists x 4 seeds is a
// few seconds of work, which the default ctest lane doesn't need to pay on
// every run.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/simulator.h"
#include "support/rng.h"

namespace dhtrng::sim {
namespace {

// Same construction as tests/sim/test_fuzz_circuits.cpp, reproduced here so
// the two fuzzers can evolve their circuit distributions independently.
struct FuzzCircuit {
  Circuit circuit;
  std::vector<std::size_t> dffs;
};

FuzzCircuit make_random_circuit(std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  FuzzCircuit fc;
  Circuit& c = fc.circuit;

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
    fc.dffs.push_back(c.add_dff(clk, pool[rng.below(pool.size())], q));
    pool.push_back(q);
  }
  return fc;
}

/// Run one (netlist seed, sim seed) pair through both engines and compare
/// the applied-event streams exactly.
void run_differential(std::uint64_t netlist_seed, std::uint64_t sim_seed,
                      double horizon_ps) {
  FuzzCircuit fc = make_random_circuit(netlist_seed);

  SimConfig ref_cfg;
  ref_cfg.seed = sim_seed;
  ref_cfg.scheduler = Scheduler::ReferenceHeap;
  Simulator ref(fc.circuit, ref_cfg);
  ref.record_applied_events();
  for (std::size_t f : fc.dffs) ref.record_dff(f);

  SimConfig prod_cfg;
  prod_cfg.seed = sim_seed;
  prod_cfg.scheduler = Scheduler::SortedRun;
  Simulator prod(fc.circuit, prod_cfg);
  prod.record_applied_events();
  for (std::size_t f : fc.dffs) prod.record_dff(f);

  ref.run_until(horizon_ps);
  prod.run_until(horizon_ps);

  const auto& re = ref.applied_events();
  const auto& ce = prod.applied_events();
  ASSERT_EQ(re.size(), ce.size())
      << "netlist seed " << netlist_seed << " sim seed " << sim_seed;
  for (std::size_t i = 0; i < re.size(); ++i) {
    ASSERT_TRUE(re[i] == ce[i])
        << "netlist seed " << netlist_seed << " sim seed " << sim_seed
        << " event " << i << ": reference (t=" << re[i].time
        << ", seq=" << re[i].seq << ", net=" << re[i].net << ", v="
        << re[i].value << ") vs sorted run (t=" << ce[i].time << ", seq="
        << ce[i].seq << ", net=" << ce[i].net << ", v=" << ce[i].value << ")";
  }

  // The derived observables must agree too (cheap once events match).
  EXPECT_EQ(ref.total_toggles(), prod.total_toggles());
  EXPECT_EQ(ref.runts_filtered(), prod.runts_filtered());
  EXPECT_EQ(ref.metastable_samples(), prod.metastable_samples());
  for (std::size_t f : fc.dffs) {
    EXPECT_EQ(ref.samples(f), prod.samples(f)) << "dff " << f;
  }
  for (NetId n = 0; n < static_cast<NetId>(fc.circuit.net_count()); ++n) {
    ASSERT_EQ(ref.net_value(n), prod.net_value(n)) << "net " << n;
    ASSERT_EQ(ref.toggle_count(n), prod.toggle_count(n)) << "net " << n;
  }
}

class DifferentialFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialFuzz, SchedulersAgreeEventForEvent) {
  const std::uint64_t netlist_seed = GetParam();
  for (std::uint64_t sim_seed : {1ull, 42ull, 1234ull, 0xdeadbeefull}) {
    run_differential(netlist_seed, sim_seed, 60000.0);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// 100 random netlists x 4 seeds = 400 differential runs.
INSTANTIATE_TEST_SUITE_P(Netlists, DifferentialFuzz,
                         ::testing::Range<std::uint64_t>(1, 101));

}  // namespace
}  // namespace dhtrng::sim
