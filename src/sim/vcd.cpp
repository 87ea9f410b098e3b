#include "sim/vcd.h"

#include <cmath>

namespace dhtrng::sim {

namespace {

/// VCD identifier codes: printable ASCII 33..126, shortest-first.
std::string vcd_id(std::uint32_t index) {
  std::string id;
  do {
    id.push_back(static_cast<char>(33 + index % 94));
    index /= 94;
  } while (index > 0);
  return id;
}

}  // namespace

VcdTrace::VcdTrace(const Circuit& circuit, Simulator& simulator,
                   std::vector<NetId> nets, double resolution_ps)
    : circuit_(circuit),
      sim_(simulator),
      nets_(std::move(nets)),
      resolution_ps_(resolution_ps),
      last_(nets_.size(), 0) {}

void VcdTrace::run_until(double t_ps) {
  double t = sim_.now();
  if (!primed_) {
    for (std::size_t i = 0; i < nets_.size(); ++i) {
      last_[i] = sim_.net_value(nets_[i]) ? 1 : 0;
      changes_.push_back({t, static_cast<std::uint32_t>(i), last_[i] != 0});
    }
    primed_ = true;
  }
  while (t < t_ps) {
    t = std::min(t + resolution_ps_, t_ps);
    sim_.run_until(t);
    for (std::size_t i = 0; i < nets_.size(); ++i) {
      const std::uint8_t v = sim_.net_value(nets_[i]) ? 1 : 0;
      if (v != last_[i]) {
        last_[i] = v;
        changes_.push_back({t, static_cast<std::uint32_t>(i), v != 0});
      }
    }
  }
}

void VcdTrace::write(std::ostream& out) const {
  out << "$timescale 1ps $end\n";
  out << "$scope module dhtrng $end\n";
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    out << "$var wire 1 " << vcd_id(static_cast<std::uint32_t>(i)) << " "
        << circuit_.net_name(nets_[i]) << " $end\n";
  }
  out << "$upscope $end\n$enddefinitions $end\n";
  double last_time = -1.0;
  for (const Change& c : changes_) {
    const auto ticks = static_cast<long long>(std::llround(c.time_ps));
    if (c.time_ps != last_time) {
      out << "#" << ticks << "\n";
      last_time = c.time_ps;
    }
    out << (c.value ? '1' : '0') << vcd_id(c.net_index) << "\n";
  }
}

}  // namespace dhtrng::sim
