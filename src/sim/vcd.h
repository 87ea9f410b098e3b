// Value-change-dump (IEEE 1364 VCD) writer for the event-driven simulator.
//
// Attach a VcdTrace to a Simulator-driven run to inspect ring start-up,
// hold/oscillate switching of the hybrid units, or metastable resolutions
// in GTKWave or any other VCD viewer.  The trace polls the simulator's net
// values on a fixed grid (the simulator has no change-callback API by
// design — it stays hot-loop friendly), so pick a resolution finer than
// the fastest gate delay of interest.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/circuit.h"
#include "sim/simulator.h"

namespace dhtrng::sim {

class VcdTrace {
 public:
  /// Trace the given nets of `sim` with the given sampling resolution.
  VcdTrace(const Circuit& circuit, Simulator& simulator,
           std::vector<NetId> nets, double resolution_ps = 25.0);

  /// Advance the simulator to `t_ps`, recording changes on the way.
  void run_until(double t_ps);

  /// Write the collected trace as a VCD document.
  void write(std::ostream& out) const;

  std::size_t change_count() const { return changes_.size(); }

 private:
  struct Change {
    double time_ps;
    std::uint32_t net_index;  // index into nets_
    bool value;
  };

  const Circuit& circuit_;
  Simulator& sim_;
  std::vector<NetId> nets_;
  double resolution_ps_;
  std::vector<std::uint8_t> last_;
  std::vector<Change> changes_;
  bool primed_ = false;
};

}  // namespace dhtrng::sim
