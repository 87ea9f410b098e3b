#include "stats/restart_matrix.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/dhtrng.h"
#include "stats/sp800_90b.h"
#include "support/rng.h"

namespace dhtrng::stats {
namespace {

/// Generator that replays a fixed prefix after each restart, then goes
/// random — the failure restart-matrix testing exists to catch (its
/// columns become constant).
class PrefixReplayTrng final : public core::TrngSource {
 public:
  explicit PrefixReplayTrng(std::size_t prefix) : prefix_(prefix), rng_(9) {}
  std::string name() const override { return "prefix-replay"; }
  bool next_bit() override {
    const std::size_t i = emitted_++;
    if (i < prefix_) return (0xA5A5A5A5u >> (i % 32)) & 1u;
    return rng_.bernoulli(0.5);
  }
  void restart() override { emitted_ = 0; }
  sim::ResourceCounts resources() const override { return {}; }
  double clock_mhz() const override { return 1.0; }
  fpga::ActivityEstimate activity() const override { return {}; }

 private:
  std::size_t prefix_;
  std::size_t emitted_ = 0;
  support::Xoshiro256 rng_;
};

TEST(RestartMatrix, DhTrngWeakFirstBitsWithoutDiscard) {
  // An honest model finding that mirrors real hardware: immediately after
  // a power cycle the ring phases are still near their deterministic
  // power-on values, so the very first output bits carry little entropy
  // and the column estimate collapses.  This is why standards require a
  // discarded startup sequence.
  core::DhTrng trng({.seed = 7});
  const auto result = restart_matrix_test(trng, 96, 96, 0);
  EXPECT_LT(result.column_min_entropy, 0.45);
}

TEST(RestartMatrix, DhTrngPassesWithStartupDiscard) {
  core::DhTrng trng({.seed = 7});
  const auto result = restart_matrix_test(trng, 200, 200, 32);
  EXPECT_EQ(result.restarts, 200u);
  EXPECT_EQ(result.samples_per_restart, 200u);
  EXPECT_TRUE(result.passes(0.9)) << "rows " << result.row_min_entropy
                                  << " cols " << result.column_min_entropy;
}

TEST(RestartMatrix, CatchesPrefixReplay) {
  PrefixReplayTrng trng(32);
  const auto result = restart_matrix_test(trng, 64, 96);
  // Columns 0..31 are constant across restarts -> column entropy ~ 0.
  EXPECT_LT(result.column_min_entropy, 0.1);
  EXPECT_FALSE(result.passes(0.9));
}

TEST(RestartMatrix, RowEstimateCatchesBiasedRows) {
  std::vector<support::BitStream> rows;
  support::Xoshiro256 rng(3);
  for (int r = 0; r < 32; ++r) {
    support::BitStream row;
    for (int c = 0; c < 64; ++c) row.push_back(rng.bernoulli(0.95));
    rows.push_back(row);
  }
  const auto result = analyze_restart_matrix(rows);
  EXPECT_LT(result.row_min_entropy, 0.3);
}

TEST(RestartMatrix, RejectsDegenerateInput) {
  EXPECT_THROW(analyze_restart_matrix({}), std::invalid_argument);
  std::vector<support::BitStream> ragged = {support::BitStream(8, false),
                                            support::BitStream(9, false)};
  EXPECT_THROW(analyze_restart_matrix(ragged), std::invalid_argument);
}

TEST(RestartMatrix, EstimatesAreTheBatchMcvExactly) {
  // Rows and columns are scored by the batch MCV estimator's own formula,
  // so each minimum equals sp800_90b::mcv over the same bits, bit for bit.
  constexpr std::size_t kRows = 50;
  constexpr std::size_t kCols = 64;
  std::vector<support::BitStream> rows;
  support::Xoshiro256 rng(11);
  for (std::size_t r = 0; r < kRows; ++r) {
    support::BitStream row;
    // Per-row bias from 0.5 to ~0.75 so the estimates spread out.
    const double p = 0.5 + 0.005 * static_cast<double>(r);
    for (std::size_t c = 0; c < kCols; ++c) row.push_back(rng.bernoulli(p));
    rows.push_back(row);
  }
  const auto result = analyze_restart_matrix(rows);

  double row_min = 1.0;
  for (const auto& row : rows) {
    row_min = std::min(row_min, sp800_90b::mcv(row).h_min);
  }
  double col_min = 1.0;
  for (std::size_t c = 0; c < kCols; ++c) {
    support::BitStream column;
    for (const auto& row : rows) column.push_back(row[c]);
    col_min = std::min(col_min, sp800_90b::mcv(column).h_min);
  }
  EXPECT_EQ(result.row_min_entropy, row_min);
  EXPECT_EQ(result.column_min_entropy, col_min);
}

TEST(RestartMatrix, SingleRestartColumnsScoreZero) {
  // One restart gives one-sample columns: below MCV's two-sample floor,
  // so every column claims no entropy (p_max = 1).
  support::Xoshiro256 rng(12);
  support::BitStream row;
  for (int c = 0; c < 64; ++c) row.push_back(rng.bernoulli(0.5));
  const auto result = analyze_restart_matrix({row});
  EXPECT_EQ(result.column_min_entropy, 0.0);
  EXPECT_EQ(result.row_min_entropy, sp800_90b::mcv(row).h_min);
}

TEST(RestartMatrix, IdealMatrixScoresHigh) {
  std::vector<support::BitStream> rows;
  support::Xoshiro256 rng(5);
  for (int r = 0; r < 200; ++r) {
    support::BitStream row;
    for (int c = 0; c < 200; ++c) row.push_back(rng.bernoulli(0.5));
    rows.push_back(row);
  }
  const auto result = analyze_restart_matrix(rows);
  // The min over 200 MCV estimates (each over only 200 samples, with the
  // 99% confidence bound) sits well below the asymptotic value but above
  // the h/2 acceptance gate.
  EXPECT_GT(result.row_min_entropy, 0.45);
  EXPECT_GT(result.column_min_entropy, 0.45);
  EXPECT_TRUE(result.passes(0.9));
}

}  // namespace
}  // namespace dhtrng::stats
