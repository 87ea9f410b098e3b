// Contiguous (struct-of-arrays / CSR) view of a Circuit, built once at
// elaboration time.
//
// The Circuit API optimizes for construction convenience: gates hold their
// input lists in per-gate vectors, fanout is implicit, clocks are a list to
// scan.  The simulator's hot loop wants the opposite — flat arrays it can
// stream through without pointer chasing or per-event allocation — so the
// constructor flattens everything once:
//
//   * gate input nets and per-net fanout gate lists in CSR form (one flat
//     array each, spans held in the per-gate and per-net records),
//   * flip-flops indexed by their clock net in CSR form,
//   * a per-net clock-spec index (first registered clock wins, matching
//     the reference scheduler's linear-scan-with-break semantics),
//   * a per-gate truth table, so evaluation is a bit gather and a shift.
//
// Order is preserved exactly — including duplicate fanout entries when a
// gate lists the same input net twice — because the noise draw order, and
// therefore the waveforms, depend on it.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/circuit.h"

namespace dhtrng::sim {

/// Gates with at most this many inputs evaluate from their truth table;
/// wider ones (none ship, the Circuit API allows them) use the kind switch.
inline constexpr std::size_t kTableArity = 6;

/// Truth table of `kind` over `arity` inputs: bit i holds the output for the
/// input combination in which input j is bit j of i.  Requires
/// arity <= kTableArity.
std::uint64_t gate_truth_table(GateKind kind, std::size_t arity);

struct FlatNetlist {
  std::vector<double> gate_delay_ps;  ///< nominal delay per gate
  std::vector<NetId> gate_in;         ///< input nets, gate by gate
  std::vector<std::uint32_t> fanout;  ///< gate indices per net, dups kept
  std::vector<std::uint32_t> dff_by_clk;  ///< flip-flops per clock net

  /// Per-net hot metadata: everything the event loop reads for an applied
  /// net change (fanout span, flip-flop span, clock source) in one 20-byte
  /// record, so the common event touches one cache line.
  struct NetMeta {
    std::uint32_t fanout_begin = 0;
    std::uint32_t fanout_end = 0;
    std::uint32_t dff_begin = 0;
    std::uint32_t dff_end = 0;
    std::int32_t clock = -1;  ///< index into Circuit::clocks(), or -1
  };
  std::vector<NetMeta> net_meta;  ///< size nets

  /// Per-gate hot metadata: everything evaluation and scheduling read.
  struct GateMeta {
    std::uint64_t table = 0;  ///< gate_truth_table(kind, arity) if it fits
    std::uint32_t in_begin = 0;
    std::uint32_t arity = 0;
    NetId output = 0;
    GateKind kind{};
  };
  std::vector<GateMeta> gate_meta;  ///< size gates

  static FlatNetlist build(const Circuit& circuit);

  /// Output of gate `g` over the current net values.
  bool evaluate(std::size_t g, const std::uint8_t* values) const {
    const GateMeta& m = gate_meta[g];
    const NetId* in = gate_in.data() + m.in_begin;
    if (m.arity > kTableArity) return evaluate_wide(m, values, in);
    unsigned idx = 0;
    for (std::uint32_t i = 0; i < m.arity; ++i) {
      idx |= static_cast<unsigned>(values[in[i]]) << i;
    }
    return ((m.table >> idx) & 1) != 0;
  }

 private:
  static bool evaluate_wide(const GateMeta& m, const std::uint8_t* values,
                            const NetId* in);
};

}  // namespace dhtrng::sim
