#include "stats/attack.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dhtrng::stats {

namespace {

constexpr std::size_t kWindow = 24;  ///< history bits used as features
/// Pairwise-XOR features b[i]^b[i+1], ...
constexpr std::size_t kInteractions = 12;
constexpr double kLearningRate = 0.01;
/// Head of the stream used for training.
constexpr double kTrainFraction = 0.6;

double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

AttackResult logistic_attack(const support::BitStream& bits) {
  constexpr std::size_t w = kWindow;
  constexpr std::size_t k = std::min(kInteractions, w - 1);
  if (bits.size() < 4 * w) {
    throw std::invalid_argument("logistic_attack: stream too short");
  }
  const std::size_t features = w + k;

  std::vector<double> weights(features, 0.0);
  double bias = 0.0;

  const std::size_t first = w;
  const std::size_t total = bits.size() - first;
  const std::size_t train_end =
      first + static_cast<std::size_t>(
                  static_cast<double>(total) * kTrainFraction);

  AttackResult result;
  std::vector<double> x(features);
  const auto featurize = [&](std::size_t i) {
    // Linear history features in +-1 encoding...
    for (std::size_t j = 0; j < w; ++j) {
      x[j] = bits[i - 1 - j] ? 1.0 : -1.0;
    }
    // ...plus adjacent-pair XOR interactions (transition indicators).
    for (std::size_t j = 0; j < k; ++j) {
      x[w + j] = (bits[i - 1 - j] != bits[i - 2 - j]) ? 1.0 : -1.0;
    }
  };
  const auto predict = [&] {
    double z = bias;
    for (std::size_t f = 0; f < features; ++f) z += weights[f] * x[f];
    return sigmoid(z);
  };

  std::size_t train_hits = 0;
  for (std::size_t i = first; i < train_end; ++i) {
    featurize(i);
    const double p = predict();
    const double y = bits[i] ? 1.0 : 0.0;
    if ((p >= 0.5) == bits[i]) ++train_hits;
    const double grad = y - p;
    bias += kLearningRate * grad;
    for (std::size_t f = 0; f < features; ++f) {
      weights[f] += kLearningRate * grad * x[f];
    }
  }

  std::size_t test_hits = 0;
  for (std::size_t i = train_end; i < bits.size(); ++i) {
    featurize(i);
    if ((predict() >= 0.5) == bits[i]) ++test_hits;
  }

  result.train_bits = train_end - first;
  result.test_bits = bits.size() - train_end;
  result.train_accuracy = result.train_bits > 0
                              ? static_cast<double>(train_hits) /
                                    static_cast<double>(result.train_bits)
                              : 0.0;
  result.test_accuracy = result.test_bits > 0
                             ? static_cast<double>(test_hits) /
                                   static_cast<double>(result.test_bits)
                             : 0.0;
  const double n = static_cast<double>(result.test_bits);
  result.z_score =
      n > 0 ? (result.test_accuracy - 0.5) / std::sqrt(0.25 / n) : 0.0;
  return result;
}

}  // namespace dhtrng::stats
