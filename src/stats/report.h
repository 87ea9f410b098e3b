// TRNG characterization report: one call that runs the quick screen of
// every suite in the library over a generator and renders a plain-text
// report — the artifact an evaluation lab hands back.  The trng_tool
// example exposes it as `trng_tool report`.
#pragma once

#include <string>

#include "core/trng.h"

namespace dhtrng::stats {

struct ReportOptions {
  std::size_t sample_bits = 300000;   ///< statistical sample volume
  std::size_t iid_permutations = 120; ///< 90B permutation count
  double claimed_min_entropy = 0.9;
};

struct CharacterizationReport {
  std::string text;        ///< rendered report
  bool all_clear = false;  ///< every check acceptable
};

/// Drive `trng` through the screen and render the report.
CharacterizationReport characterize(core::TrngSource& trng,
                                    ReportOptions options = {});

}  // namespace dhtrng::stats
