// Machine-learning next-bit prediction attack.
//
// The paper motivates TRNGs with the machine-learning cryptanalysis of
// RNGs (its reference [1], Truong et al., IEEE TIFS'18): a generator whose
// next bit can be predicted above chance from its own history is broken
// regardless of which battery it passes.  This module mounts that attack:
// an online logistic-regression model over a window of previous bits
// (plus pairwise-XOR interaction features, which catch LFSR-like and
// rotation structure that linear features miss), trained by SGD on the
// first part of a stream and scored on the rest.
//
// The score is the out-of-sample prediction accuracy: 0.5 = unpredictable,
// anything significantly above is structure an attacker can use.  The
// bench_attack_resistance experiment compares DH-TRNG and the baselines
// under this adversary — an extension experiment beyond the paper's
// evaluation.
#pragma once

#include <cstddef>
#include <vector>

#include "support/bitstream.h"

namespace dhtrng::stats {

struct AttackResult {
  std::size_t train_bits = 0;
  std::size_t test_bits = 0;
  double train_accuracy = 0.0;
  double test_accuracy = 0.0;
  /// z-score of the test accuracy against the chance distribution; > ~4
  /// means exploitable structure.
  double z_score = 0.0;
  bool predictable(double z_threshold = 4.0) const {
    return z_score > z_threshold;
  }
};

/// Train on the first 60 % of `bits` after a 24-bit history window,
/// score on the rest.
AttackResult logistic_attack(const support::BitStream& bits);

}  // namespace dhtrng::stats
