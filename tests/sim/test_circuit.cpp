#include "sim/circuit.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/flat_netlist.h"

namespace dhtrng::sim {
namespace {

TEST(GateEval, TruthTables) {
  EXPECT_TRUE(evaluate_gate(GateKind::Inv, {false}));
  EXPECT_FALSE(evaluate_gate(GateKind::Inv, {true}));
  EXPECT_TRUE(evaluate_gate(GateKind::Buf, {true}));
  EXPECT_TRUE(evaluate_gate(GateKind::And, {true, true}));
  EXPECT_FALSE(evaluate_gate(GateKind::And, {true, false}));
  EXPECT_FALSE(evaluate_gate(GateKind::Nand, {true, true}));
  EXPECT_TRUE(evaluate_gate(GateKind::Or, {false, true}));
  EXPECT_FALSE(evaluate_gate(GateKind::Nor, {false, true}));
  EXPECT_TRUE(evaluate_gate(GateKind::Nor, {false, false}));
  EXPECT_TRUE(evaluate_gate(GateKind::Xor, {true, false, false}));
  EXPECT_FALSE(evaluate_gate(GateKind::Xor, {true, true}));
  EXPECT_TRUE(evaluate_gate(GateKind::Xnor, {true, true}));
}

TEST(GateEval, MuxSelects) {
  // inputs = {sel, in0, in1}
  EXPECT_TRUE(evaluate_gate(GateKind::Mux2, {false, true, false}));
  EXPECT_FALSE(evaluate_gate(GateKind::Mux2, {true, true, false}));
  EXPECT_TRUE(evaluate_gate(GateKind::Mux2, {true, false, true}));
}

TEST(GateEval, WideXorParity) {
  EXPECT_TRUE(evaluate_gate(GateKind::Xor,
                            {true, true, true, false, false, false}));
  EXPECT_FALSE(evaluate_gate(GateKind::Xor,
                             {true, true, false, false, false, false}));
}

// The simulator evaluates gates from FlatNetlist's per-gate truth tables
// (the kind switch beyond kTableArity); both must equal evaluate_gate on
// every input combination.  Arities the Circuit API rejects (a 1-input
// AND, a 4-input INV) check the table alone.
TEST(GateEval, TableDrivenMatchesEvaluateGateExhaustively) {
  const GateKind kinds[] = {GateKind::Inv, GateKind::Buf,  GateKind::And,
                            GateKind::Nand, GateKind::Or,  GateKind::Nor,
                            GateKind::Xor,  GateKind::Xnor, GateKind::Mux2};
  for (GateKind kind : kinds) {
    for (std::size_t arity = 1; arity <= 8; ++arity) {
      if (kind == GateKind::Mux2 && arity != 3) continue;
      const bool unary = kind == GateKind::Inv || kind == GateKind::Buf;
      const bool accepted = unary ? arity == 1 : arity >= 2;
      Circuit c;
      std::vector<NetId> ins;
      for (std::size_t j = 0; j < arity; ++j) {
        ins.push_back(c.add_net(std::string("x").append(std::to_string(j))));
      }
      if (accepted) c.add_gate(kind, ins, c.add_net("y"), 10.0);
      const FlatNetlist flat = FlatNetlist::build(c);
      for (std::size_t idx = 0; idx < (std::size_t{1} << arity); ++idx) {
        std::vector<bool> bits(arity);
        std::vector<std::uint8_t> values(c.net_count(), 0);
        for (std::size_t j = 0; j < arity; ++j) {
          bits[j] = ((idx >> j) & 1) != 0;
          values[ins[j]] = bits[j] ? 1 : 0;
        }
        const bool want = evaluate_gate(kind, bits);
        if (accepted) {
          EXPECT_EQ(flat.evaluate(0, values.data()), want)
              << gate_kind_name(kind) << " arity " << arity << " idx " << idx;
        }
        if (arity <= kTableArity) {
          EXPECT_EQ(((gate_truth_table(kind, arity) >> idx) & 1) != 0, want)
              << gate_kind_name(kind) << " arity " << arity << " idx " << idx;
        }
      }
    }
  }
}

TEST(Circuit, NetNamesAreUniqueAndLookupable) {
  Circuit c;
  const NetId a = c.add_net("a");
  EXPECT_EQ(c.net("a"), a);
  EXPECT_THROW(c.add_net("a"), std::logic_error);
  EXPECT_THROW(c.net("missing"), std::logic_error);
}

TEST(Circuit, GateArityChecks) {
  Circuit c;
  const NetId a = c.add_net("a"), b = c.add_net("b"), o = c.add_net("o");
  EXPECT_THROW(c.add_gate(GateKind::Inv, {a, b}, o, 100.0), std::logic_error);
  EXPECT_THROW(c.add_gate(GateKind::Mux2, {a, b}, o, 100.0), std::logic_error);
  EXPECT_THROW(c.add_gate(GateKind::And, {a}, o, 100.0), std::logic_error);
  EXPECT_THROW(c.add_gate(GateKind::Inv, {a}, o, 0.0), std::logic_error);
  EXPECT_NO_THROW(c.add_gate(GateKind::Inv, {a}, o, 100.0));
}

TEST(Circuit, ValidateRejectsDoubleDriver) {
  Circuit c;
  const NetId a = c.add_net("a"), o = c.add_net("o");
  c.add_gate(GateKind::Inv, {a}, o, 100.0);
  c.add_gate(GateKind::Buf, {a}, o, 100.0);
  EXPECT_THROW(c.validate(), std::logic_error);
}

TEST(Circuit, ValidateAcceptsDffAndClockDrivers) {
  Circuit c;
  const NetId clk = c.add_net("clk"), d = c.add_net("d"), q = c.add_net("q");
  c.add_clock(clk, 1000.0);
  c.add_dff(clk, d, q);
  EXPECT_NO_THROW(c.validate());
}

TEST(Circuit, ClockValidation) {
  Circuit c;
  const NetId clk = c.add_net("clk");
  EXPECT_THROW(c.add_clock(clk, 0.0), std::logic_error);
  EXPECT_THROW(c.add_clock(clk, 100.0, 0.0, 1.5), std::logic_error);
}

TEST(Circuit, ResourceCountsByKind) {
  Circuit c;
  const NetId a = c.add_net("a"), b = c.add_net("b");
  const NetId x = c.add_net("x"), y = c.add_net("y"), z = c.add_net("z");
  const NetId clk = c.add_net("clk"), q = c.add_net("q");
  c.add_gate(GateKind::Xor, {a, b}, x, 100.0);
  c.add_gate(GateKind::Inv, {x}, y, 100.0);
  c.add_gate(GateKind::Mux2, {a, x, y}, z, 100.0);
  c.add_dff(clk, z, q);
  const ResourceCounts rc = c.resources();
  EXPECT_EQ(rc.luts, 2u);
  EXPECT_EQ(rc.muxes, 1u);
  EXPECT_EQ(rc.dffs, 1u);
}

TEST(Circuit, InitialValuesDefaultZero) {
  Circuit c;
  const NetId a = c.add_net("a");
  EXPECT_FALSE(c.initial_values()[a]);
  c.set_initial(a, true);
  EXPECT_TRUE(c.initial_values()[a]);
}

TEST(GateKindName, AllNamed) {
  for (GateKind k : {GateKind::Inv, GateKind::Buf, GateKind::And,
                     GateKind::Nand, GateKind::Or, GateKind::Nor,
                     GateKind::Xor, GateKind::Xnor, GateKind::Mux2}) {
    EXPECT_STRNE(gate_kind_name(k), "?");
  }
}

}  // namespace
}  // namespace dhtrng::sim
