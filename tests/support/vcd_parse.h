// Reader for the VCD documents sim::VcdTrace writes, for the tests that
// round-trip its output (tests/sim/test_vcd.cpp).
#pragma once

#include <cstdint>
#include <istream>
#include <string>
#include <vector>

namespace dhtrng::sim {

/// Parsed view of a single-bit VCD document (the dialect VcdTrace::write
/// emits: one scope, scalar wires, 0/1 value changes).
struct ParsedVcd {
  struct Var {
    std::string id;    ///< VCD identifier code
    std::string name;  ///< net name
  };
  struct ValueChange {
    long long time;     ///< timestamp in timescale units
    std::uint32_t var;  ///< index into vars
    bool value;
  };

  std::string timescale;
  std::vector<Var> vars;
  std::vector<ValueChange> changes;
};

/// Minimal IEEE 1364 VCD parser covering what the writer produces; round-
/// trips VcdTrace output and is enough to re-read golden traces.  Throws
/// std::runtime_error on malformed input (unknown identifier codes,
/// value changes before $enddefinitions, truncated directives).
ParsedVcd parse_vcd(std::istream& in);

}  // namespace dhtrng::sim
