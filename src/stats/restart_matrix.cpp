#include "stats/restart_matrix.h"

#include <algorithm>
#include <stdexcept>

#include "stats/scores.h"

namespace dhtrng::stats {

namespace {

/// MCV min-entropy (6.3.1) of n samples with `ones` ones.
double mcv_h(std::size_t ones, std::size_t n) {
  return scores::min_entropy(scores::mcv_p_max(n, ones)).h_min;
}

}  // namespace

RestartMatrixResult analyze_restart_matrix(
    const std::vector<support::BitStream>& rows) {
  if (rows.empty() || rows.front().empty()) {
    throw std::invalid_argument("analyze_restart_matrix: empty matrix");
  }
  RestartMatrixResult result;
  result.restarts = rows.size();
  result.samples_per_restart = rows.front().size();

  double row_min = 1.0;
  for (const auto& row : rows) {
    if (row.size() != result.samples_per_restart) {
      throw std::invalid_argument("analyze_restart_matrix: ragged matrix");
    }
    row_min = std::min(row_min, mcv_h(row.count_ones(), row.size()));
  }
  result.row_min_entropy = row_min;

  double col_min = 1.0;
  for (std::size_t c = 0; c < result.samples_per_restart; ++c) {
    std::size_t ones = 0;
    for (const auto& row : rows) ones += row[c] ? 1u : 0u;
    col_min = std::min(col_min, mcv_h(ones, rows.size()));
  }
  result.column_min_entropy = col_min;
  return result;
}

RestartMatrixResult restart_matrix_test(core::TrngSource& trng,
                                        std::size_t restarts,
                                        std::size_t samples_per_restart,
                                        std::size_t startup_discard) {
  std::vector<support::BitStream> rows;
  rows.reserve(restarts);
  for (std::size_t r = 0; r < restarts; ++r) {
    trng.restart();
    for (std::size_t d = 0; d < startup_discard; ++d) trng.next_bit();
    rows.push_back(trng.generate(samples_per_restart));
  }
  return analyze_restart_matrix(rows);
}

}  // namespace dhtrng::stats
