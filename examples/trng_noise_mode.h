// trng_tool's noise-mode rule: the noise fidelity a --backend draws for a
// --noise-mode flag, and the STATS `noise_mode` label `serve` advertises
// for it.  A header of its own so tests/examples can check the rule for
// every backend and mode.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "noise/jitter.h"

namespace dhtrng::tool {

/// Parse a --noise-mode value; throws on anything but fast|exact.
inline noise::NoiseMode parse_noise_mode(std::string_view mode) {
  if (mode == "fast") return noise::NoiseMode::Fast;
  if (mode == "exact") return noise::NoiseMode::Exact;
  throw std::runtime_error("unknown --noise-mode=" + std::string(mode) +
                           " (expected fast|exact)");
}

/// The noise fidelity `backend` draws for `--noise-mode=mode` ("" when
/// the flag is absent; any other value is parsed, whatever the backend).
/// The soa engine defaults to fast, its bulk engine, and a gate-level
/// DH-TRNG to exact; both draw the mode asked for.  The phase-domain
/// backends (fast and the zoo architectures) draw their exact-grade
/// stream whatever the flag says.
inline noise::NoiseMode drawn_noise_mode(std::string_view backend,
                                         std::string_view mode) {
  const noise::NoiseMode requested = parse_noise_mode(
      mode.empty() ? (backend == "soa" ? "fast" : "exact") : mode);
  return backend == "soa" || backend == "gate" ? requested
                                               : noise::NoiseMode::Exact;
}

/// The STATS `noise_mode` label of a drawn mode.
inline const char* noise_mode_name(noise::NoiseMode mode) {
  return mode == noise::NoiseMode::Fast ? "fast" : "exact";
}

}  // namespace dhtrng::tool
