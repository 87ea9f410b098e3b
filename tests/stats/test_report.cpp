#include "stats/report.h"

#include <gtest/gtest.h>

#include "core/dhtrng.h"
#include "support/rng.h"

namespace dhtrng::stats {
namespace {

/// A broken generator: heavy bias plus serial structure.
class BrokenTrng final : public core::TrngSource {
 public:
  std::string name() const override { return "broken"; }
  bool next_bit() override {
    cur_ = rng_.bernoulli(0.9) ? cur_ : !cur_;
    return cur_;
  }
  void restart() override { cur_ = false; }
  sim::ResourceCounts resources() const override { return {}; }
  double clock_mhz() const override { return 1.0; }
  fpga::ActivityEstimate activity() const override { return {}; }

 private:
  bool cur_ = false;
  support::Xoshiro256 rng_{42};
};

TEST(CharacterizationReport, DhTrngAllClear) {
  core::DhTrng trng({.seed = 20});
  ReportOptions opts;
  opts.sample_bits = 200000;
  const auto report = characterize(trng, opts);
  EXPECT_TRUE(report.all_clear) << report.text;
  EXPECT_NE(report.text.find("ALL CLEAR"), std::string::npos);
  EXPECT_NE(report.text.find("SP 800-90B overall"), std::string::npos);
  EXPECT_NE(report.text.find("FIPS 140-2"), std::string::npos);
}

TEST(CharacterizationReport, BrokenGeneratorFlagged) {
  BrokenTrng trng;
  ReportOptions opts;
  opts.sample_bits = 100000;
  const auto report = characterize(trng, opts);
  EXPECT_FALSE(report.all_clear);
  EXPECT_NE(report.text.find("ISSUES FOUND"), std::string::npos);
  EXPECT_NE(report.text.find("FAIL"), std::string::npos);
}

TEST(CharacterizationReport, MentionsGeneratorIdentity) {
  core::DhTrng trng({.seed = 21});
  ReportOptions opts;
  opts.sample_bits = 60000;
  const auto report = characterize(trng, opts);
  EXPECT_NE(report.text.find("DH-TRNG"), std::string::npos);
  EXPECT_NE(report.text.find("Mbps"), std::string::npos);
}

TEST(CharacterizationReport, OneSeedGivesOneReportText) {
  ReportOptions opts;
  opts.sample_bits = 100000;
  core::DhTrng first({.seed = 22});
  core::DhTrng second({.seed = 22});
  const auto a = characterize(first, opts);
  const auto b = characterize(second, opts);
  ASSERT_NE(a.text.find("SP 800-22"), std::string::npos) << a.text;
  ASSERT_NE(a.text.find("restart matrix"), std::string::npos) << a.text;
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.all_clear, b.all_clear);
}

}  // namespace
}  // namespace dhtrng::stats
