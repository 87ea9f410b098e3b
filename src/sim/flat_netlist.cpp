#include "sim/flat_netlist.h"

namespace dhtrng::sim {

std::uint64_t gate_truth_table(GateKind kind, std::size_t arity) {
  std::uint64_t table = 0;
  std::vector<bool> in(arity);
  for (std::size_t idx = 0; idx < (std::size_t{1} << arity); ++idx) {
    for (std::size_t j = 0; j < arity; ++j) in[j] = ((idx >> j) & 1) != 0;
    if (evaluate_gate(kind, in)) table |= std::uint64_t{1} << idx;
  }
  return table;
}

bool FlatNetlist::evaluate_wide(const GateMeta& m, const std::uint8_t* values,
                                const NetId* in) {
  std::vector<bool> bits(m.arity);
  for (std::uint32_t i = 0; i < m.arity; ++i) bits[i] = values[in[i]] != 0;
  return evaluate_gate(m.kind, bits);
}

FlatNetlist FlatNetlist::build(const Circuit& circuit) {
  FlatNetlist f;
  const std::size_t net_count = circuit.net_count();
  const auto& gates = circuit.gates();
  const auto& dffs = circuit.dffs();

  f.gate_delay_ps.reserve(gates.size());
  f.gate_meta.resize(gates.size());
  for (std::size_t g = 0; g < gates.size(); ++g) {
    const Gate& gate = gates[g];
    GateMeta& m = f.gate_meta[g];
    m.in_begin = static_cast<std::uint32_t>(f.gate_in.size());
    m.arity = static_cast<std::uint32_t>(gate.inputs.size());
    m.output = gate.output;
    m.kind = gate.kind;
    if (m.arity <= kTableArity) m.table = gate_truth_table(gate.kind, m.arity);
    f.gate_delay_ps.push_back(gate.delay_ps);
    for (NetId in : gate.inputs) f.gate_in.push_back(in);
  }

  // Counting-sort CSR construction; preserves the (gate, input-position)
  // order of the reference scheduler's vector-of-vectors, duplicates and
  // all, because the noise draw order depends on it.
  std::vector<std::uint32_t> fanout_off(net_count + 1, 0);
  for (const Gate& g : gates) {
    for (NetId in : g.inputs) ++fanout_off[in + 1];
  }
  for (std::size_t n = 0; n < net_count; ++n) {
    fanout_off[n + 1] += fanout_off[n];
  }
  f.fanout.resize(f.gate_in.size());
  {
    std::vector<std::uint32_t> cursor(fanout_off.begin(),
                                      fanout_off.end() - 1);
    for (std::size_t g = 0; g < gates.size(); ++g) {
      for (NetId in : gates[g].inputs) {
        f.fanout[cursor[in]++] = static_cast<std::uint32_t>(g);
      }
    }
  }

  std::vector<std::uint32_t> dff_off(net_count + 1, 0);
  for (const Dff& d : dffs) ++dff_off[d.clk + 1];
  for (std::size_t n = 0; n < net_count; ++n) dff_off[n + 1] += dff_off[n];
  f.dff_by_clk.resize(dffs.size());
  {
    std::vector<std::uint32_t> cursor(dff_off.begin(), dff_off.end() - 1);
    for (std::size_t d = 0; d < dffs.size(); ++d) {
      f.dff_by_clk[cursor[dffs[d].clk]++] = static_cast<std::uint32_t>(d);
    }
  }

  f.net_meta.resize(net_count);
  for (std::size_t n = 0; n < net_count; ++n) {
    NetMeta& m = f.net_meta[n];
    m.fanout_begin = fanout_off[n];
    m.fanout_end = fanout_off[n + 1];
    m.dff_begin = dff_off[n];
    m.dff_end = dff_off[n + 1];
  }
  const auto& clocks = circuit.clocks();
  for (std::size_t c = 0; c < clocks.size(); ++c) {
    if (f.net_meta[clocks[c].net].clock < 0) {
      f.net_meta[clocks[c].net].clock = static_cast<std::int32_t>(c);
    }
  }
  return f;
}

}  // namespace dhtrng::sim
