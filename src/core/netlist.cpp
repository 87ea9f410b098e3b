#include "core/netlist.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/ro.h"

namespace dhtrng::core {

namespace {

struct StructureNets {
  sim::NetId r1a, r2a, r1b, r2b, c1, c2;
};

// One nested coupling structure: 10 LUTs + 2 MUXs (see header inventory).
StructureNets build_structure(sim::Circuit& c, const std::string& prefix,
                              const fpga::DeviceModel& dev, sim::NetId en,
                              sim::NetId fb, bool coupling, bool feedback) {
  const double ring_delay = dev.lut_delay_ps + 0.35 * dev.net_delay_ps;
  const double mux_delay = dev.mux_delay_ps + 0.2 * dev.net_delay_ps;
  const double xor_delay = dev.lut_delay_ps + 0.45 * dev.net_delay_ps;

  const auto unit = [&](const std::string& u, double skew) {
    // RO1: NAND(en, r1) -> BUF -> r1 (single inverting element + buffer).
    const sim::NetId n0 = c.add_net(prefix + u + "_n0");
    const sim::NetId r1 = c.add_net(prefix + u + "_r1");
    c.add_gate(sim::GateKind::Nand, {en, r1}, n0, ring_delay * skew);
    c.add_gate(sim::GateKind::Buf, {n0}, r1, ring_delay * skew);
    // RO2: MUX2(sel=r1, in0=INV(r2), in1=r2) -> r2.
    const sim::NetId inv = c.add_net(prefix + u + "_inv");
    const sim::NetId r2 = c.add_net(prefix + u + "_r2");
    c.add_gate(sim::GateKind::Inv, {r2}, inv, ring_delay * 0.8 * skew);
    c.add_gate(sim::GateKind::Mux2, {r1, inv, r2}, r2, mux_delay * skew);
    return std::pair{r1, r2};
  };

  const auto [r1a, r2a] = unit("_a", 1.0);
  const auto [r1b, r2b] = unit("_b", 1.07);  // frequency-diverse mirror unit

  // Central XOR rings.  With coupling on, each ring's two XORs take the
  // edge-ring signals (and the feedback line) as free inputs; with coupling
  // off the loop is a fixed-mode 2-inverter chain of the same LUT count.
  const auto central = [&](const std::string& ring, sim::NetId ea,
                           sim::NetId eb) {
    const sim::NetId x0 = c.add_net(prefix + ring + "_x0");
    const sim::NetId x1 = c.add_net(prefix + ring + "_x1");
    if (coupling) {
      std::vector<sim::NetId> in0{x1, ea};
      if (feedback) in0.push_back(fb);
      c.add_gate(sim::GateKind::Xor, in0, x0, xor_delay);
      c.add_gate(sim::GateKind::Xnor, {x0, eb}, x1, xor_delay);
    } else {
      c.add_gate(sim::GateKind::Inv, {x1}, x0, xor_delay);
      c.add_gate(sim::GateKind::Buf, {x0}, x1, xor_delay);
    }
    return x1;
  };
  const sim::NetId c1 = central("_c1", r1a, r1b);
  const sim::NetId c2 = central("_c2", r2a, r2b);

  return {r1a, r2a, r1b, r2b, c1, c2};
}

}  // namespace

DhTrngNetlist build_dhtrng_netlist(const fpga::DeviceModel& device,
                                   double clock_mhz, bool coupling,
                                   bool feedback) {
  DhTrngNetlist n;
  sim::Circuit& c = n.circuit;

  n.enable_net = c.add_net("en");
  c.set_initial(n.enable_net, true);
  n.clock_net = c.add_net("clk");
  c.add_clock(n.clock_net, 1e6 / clock_mhz);

  const sim::NetId fb = c.add_net("fb");

  const StructureNets s0 =
      build_structure(c, "s0", device, n.enable_net, fb, coupling, feedback);
  const StructureNets s1 =
      build_structure(c, "s1", device, n.enable_net, fb, coupling, feedback);

  // Multistage sampling array: 12 DFFs on the ring signals.
  const sim::DffTiming ff = device.dff_timing();
  const sim::NetId ring_nets[12] = {s0.r1a, s0.r2a, s0.r1b, s0.r2b,
                                    s0.c1,  s0.c2,  s1.r1a, s1.r2a,
                                    s1.r1b, s1.r2b, s1.c1,  s1.c2};
  std::vector<sim::NetId> q(12);
  for (int i = 0; i < 12; ++i) {
    q[static_cast<std::size_t>(i)] =
        c.add_net(std::string("q").append(std::to_string(i)));
    n.sample_dffs.push_back(
        c.add_dff(n.clock_net, ring_nets[i], q[static_cast<std::size_t>(i)], ff));
  }

  // XOR tree: two XOR6 + one XOR2 = 3 LUTs.  Tree nets cross between the
  // sampling-array slices, so they carry the full average routed-net delay
  // (this is the register-to-register critical path that sets the paper's
  // 620/670 MHz clocks — see fpga/timing.h).
  const double tree_delay = device.lut_delay_ps + device.net_delay_ps;
  const sim::NetId t0 = c.add_net("xt0");
  const sim::NetId t1 = c.add_net("xt1");
  const sim::NetId t2 = c.add_net("xt2");
  c.add_gate(sim::GateKind::Xor, {q[0], q[1], q[2], q[3], q[4], q[5]}, t0,
             tree_delay);
  c.add_gate(sim::GateKind::Xor, {q[6], q[7], q[8], q[9], q[10], q[11]}, t1,
             tree_delay);
  c.add_gate(sim::GateKind::Xor, {t0, t1}, t2, tree_delay);

  // Output and feedback registers.
  n.out_net = c.add_net("out");
  n.out_dff = c.add_dff(n.clock_net, t2, n.out_net, ff);
  n.feedback_dff = c.add_dff(n.clock_net, n.out_net, fb, ff);

  n.pack_groups = {
      fpga::PackGroup{"entropy-source-0", 10, 2, 0},
      fpga::PackGroup{"entropy-source-1", 10, 2, 0},
      fpga::PackGroup{"sampling-array", 3, 0, 14},
  };
  return n;
}

sim::NetId build_xor_lut6_tree(sim::Circuit& circuit,
                               std::vector<sim::NetId> inputs,
                               double delay_ps) {
  for (int level = 0; inputs.size() > 1; ++level) {
    std::vector<sim::NetId> next;
    for (std::size_t i = 0; i < inputs.size(); i += 6) {
      const std::size_t take = std::min<std::size_t>(6, inputs.size() - i);
      if (take == 1) {
        next.push_back(inputs[i]);
        continue;
      }
      const sim::NetId out = circuit.add_net(
          "xt" + std::to_string(level) + "_" + std::to_string(i / 6));
      circuit.add_gate(
          sim::GateKind::Xor,
          std::vector<sim::NetId>(inputs.begin() + static_cast<long>(i),
                                  inputs.begin() + static_cast<long>(i + take)),
          out, delay_ps);
      next.push_back(out);
    }
    inputs = std::move(next);
  }
  return inputs.front();
}

std::size_t xor_lut6_tree_luts(std::size_t inputs) {
  std::size_t luts = 0;
  while (inputs > 1) {
    // A lone leftover input passes up a level without a gate.
    luts += inputs / 6 + (inputs % 6 >= 2 ? 1 : 0);
    inputs = (inputs + 5) / 6;
  }
  return luts;
}

XorRoNetlist build_xor_ro_netlist(const fpga::DeviceModel& device,
                                  int stages, int rings, double clock_mhz) {
  XorRoNetlist n;
  sim::Circuit& c = n.circuit;

  const sim::NetId en = c.add_net("en");
  c.set_initial(en, true);
  n.clock_net = c.add_net("clk");
  c.add_clock(n.clock_net, 1e6 / clock_mhz);

  const double element_delay =
      device.lut_delay_ps + 0.35 * device.net_delay_ps;
  const sim::DffTiming ff = device.dff_timing();

  std::vector<sim::NetId> q;
  for (int r = 0; r < rings; ++r) {
    const sim::NetId ring = build_ring_oscillator(
        c, "ro" + std::to_string(r), stages, en,
        // +-1% per-instance mismatch, deterministic in the ring index.
        element_delay * (1.0 + 0.01 * ((r % 3) - 1)));
    const sim::NetId qn =
        c.add_net(std::string("q").append(std::to_string(r)));
    n.sampler_dffs.push_back(c.add_dff(n.clock_net, ring, qn, ff));
    q.push_back(qn);
  }

  const sim::NetId root = build_xor_lut6_tree(
      c, std::move(q), device.lut_delay_ps + 0.3 * device.net_delay_ps);
  n.out_net = c.add_net("out");
  n.out_dff = c.add_dff(n.clock_net, root, n.out_net, ff);
  return n;
}

std::vector<NamedGateNetlist> golden_gate_netlists(
    const fpga::DeviceModel& device) {
  std::vector<NamedGateNetlist> out;

  {
    DhTrngNetlist n = build_dhtrng_netlist(device, 600.0);
    const sim::Circuit& c = n.circuit;
    NamedGateNetlist g;
    g.name = "dhtrng";
    g.watch = {n.out_net,          c.net("fb"),       c.net("s0_a_r1"),
               c.net("s0_a_r2"),   c.net("s0_c1_x1"), c.net("s1_c2_x1"),
               c.net("xt2")};
    g.circuit = std::move(n.circuit);
    out.push_back(std::move(g));
  }
  {
    DhTrngNetlist n = build_dhtrng_netlist(device, 600.0, /*coupling=*/false,
                                           /*feedback=*/false);
    const sim::Circuit& c = n.circuit;
    NamedGateNetlist g;
    g.name = "dhtrng_uncoupled";
    g.watch = {n.out_net, c.net("s0_a_r1"), c.net("s0_c1_x1"), c.net("xt2")};
    g.circuit = std::move(n.circuit);
    out.push_back(std::move(g));
  }
  {
    XorRoNetlist n = build_xor_ro_netlist(device, 3, 8, 600.0);
    const sim::Circuit& c = n.circuit;
    NamedGateNetlist g;
    g.name = "xor_ro";
    g.watch = {n.out_net, c.net("ro0_n2"), c.net("ro7_n2"), c.net("xt0_0")};
    g.circuit = std::move(n.circuit);
    out.push_back(std::move(g));
  }
  return out;
}

}  // namespace dhtrng::core
