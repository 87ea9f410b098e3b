#include "sim/vcd.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "core/ro.h"
#include "support/sha256.h"
#include "support/vcd_parse.h"

namespace dhtrng::sim {
namespace {

// SHA-256 of the VCD document in VcdGolden.ByteStreamDigestIsStable; run
// that test with DHTRNG_REGEN_GOLDEN=1 to print a fresh value.
constexpr const char* kVcdGoldenDigest =
    "9881dae42925f68c52316e9d0a0ee7513e4e0b82233748f9651138b548c2a2b9";

TEST(VcdTrace, CapturesRingActivity) {
  Circuit c;
  const NetId en = c.add_net("en");
  c.set_initial(en, true);
  const NetId out = core::build_ring_oscillator(c, "ro", 3, en, 100.0);
  SimConfig cfg;
  cfg.seed = 1;
  Simulator sim(c, cfg);
  VcdTrace trace(c, sim, {out, en}, 25.0);
  trace.run_until(5000.0);
  // ~8 periods of 600 ps -> at least a dozen transitions on `out`.
  EXPECT_GT(trace.change_count(), 12u);
}

TEST(VcdTrace, WritesWellFormedDocument) {
  Circuit c;
  const NetId en = c.add_net("en");
  c.set_initial(en, true);
  const NetId out = core::build_ring_oscillator(c, "ro", 3, en, 100.0);
  SimConfig cfg;
  cfg.seed = 2;
  Simulator sim(c, cfg);
  VcdTrace trace(c, sim, {out}, 25.0);
  trace.run_until(2000.0);
  std::ostringstream os;
  trace.write(os);
  const std::string vcd = os.str();
  EXPECT_NE(vcd.find("$timescale 1ps $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 ! ro_n2 $end"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(vcd.find("#0"), std::string::npos);
  // Value lines: '0!' or '1!'.
  EXPECT_TRUE(vcd.find("1!") != std::string::npos ||
              vcd.find("0!") != std::string::npos);
}

TEST(VcdTrace, QuietNetProducesOnlyInitialDump) {
  Circuit c;
  const NetId idle = c.add_net("idle");
  SimConfig cfg;
  Simulator sim(c, cfg);
  VcdTrace trace(c, sim, {idle}, 50.0);
  trace.run_until(10000.0);
  EXPECT_EQ(trace.change_count(), 1u);  // the initial value only
}

TEST(VcdTrace, ResolutionBoundsTimestamps) {
  Circuit c;
  const NetId en = c.add_net("en");
  c.set_initial(en, true);
  core::build_ring_oscillator(c, "ro", 3, en, 100.0);
  SimConfig cfg;
  cfg.seed = 3;
  Simulator sim(c, cfg);
  VcdTrace trace(c, sim, {c.net("ro_n0")}, 10.0);
  trace.run_until(987.0);
  EXPECT_GE(sim.now(), 987.0);
}

TEST(VcdParse, RoundTripsWriterOutput) {
  Circuit c;
  const NetId en = c.add_net("en");
  c.set_initial(en, true);
  const NetId out = core::build_ring_oscillator(c, "ro", 3, en, 100.0);
  SimConfig cfg;
  cfg.seed = 4;
  Simulator sim(c, cfg);
  VcdTrace trace(c, sim, {out, en}, 25.0);
  trace.run_until(3000.0);

  std::ostringstream os;
  trace.write(os);
  std::istringstream is(os.str());
  const ParsedVcd doc = parse_vcd(is);

  EXPECT_EQ(doc.timescale, "1ps");
  ASSERT_EQ(doc.vars.size(), 2u);
  EXPECT_EQ(doc.vars[0].name, "ro_n2");
  EXPECT_EQ(doc.vars[1].name, "en");
  ASSERT_EQ(doc.changes.size(), trace.change_count());
  // Timestamps nondecreasing; every change names a declared var.
  for (std::size_t i = 0; i < doc.changes.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(doc.changes[i].time, doc.changes[i - 1].time);
    }
    EXPECT_LT(doc.changes[i].var, doc.vars.size());
  }
  // The initial dump records both nets at t=0: en=1, ring output as primed.
  EXPECT_EQ(doc.changes[0].time, 0);
  EXPECT_EQ(doc.changes[1].var, 1u);
  EXPECT_TRUE(doc.changes[1].value);
}

TEST(VcdParse, RejectsMalformedDocuments) {
  const auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return parse_vcd(is);
  };
  // Value change before $enddefinitions.
  EXPECT_THROW(parse("$var wire 1 ! a $end\n#0\n1!\n"), std::runtime_error);
  // Unknown identifier code.
  EXPECT_THROW(parse("$var wire 1 ! a $end\n$enddefinitions $end\n#0\n1?\n"),
               std::runtime_error);
  // Unterminated directive.
  EXPECT_THROW(parse("$timescale 1ps"), std::runtime_error);
  // Vector wires are outside the supported dialect.
  EXPECT_THROW(parse("$var wire 8 ! bus $end\n$enddefinitions $end\n"),
               std::runtime_error);
  // Garbage token.
  EXPECT_THROW(parse("$enddefinitions $end\nxyz\n"), std::runtime_error);
  // Bad timestamp.
  EXPECT_THROW(parse("$enddefinitions $end\n#zz\n"), std::runtime_error);
}

TEST(VcdParse, AcceptsForeignHeaderDirectives) {
  // Other tools emit $date/$version/$comment and $dumpvars; the parser
  // must skip them.
  std::istringstream is(
      "$date today $end\n$version some tool $end\n$comment hi $end\n"
      "$timescale 1ps $end\n$var wire 1 ! a $end\n"
      "$enddefinitions $end\n$dumpvars\n#0\n1!\n$end\n#10\n0!\n");
  const ParsedVcd doc = parse_vcd(is);
  ASSERT_EQ(doc.vars.size(), 1u);
  ASSERT_EQ(doc.changes.size(), 2u);
  EXPECT_EQ(doc.changes[1].time, 10);
  EXPECT_FALSE(doc.changes[1].value);
}

// Pins the exact VCD byte stream for a fixed (circuit, config, seed): any
// change to the writer's format, the sampling grid, the event engine's
// schedule, or the noise stream shows up as a digest mismatch.  Regenerate
// with DHTRNG_REGEN_GOLDEN=1 (see docs/architecture.md).
TEST(VcdGolden, ByteStreamDigestIsStable) {
  Circuit c;
  const NetId en = c.add_net("en");
  c.set_initial(en, true);
  const NetId out = core::build_ring_oscillator(c, "ro", 5, en, 120.0);
  SimConfig cfg;
  cfg.seed = 7;
  Simulator sim(c, cfg);
  VcdTrace trace(c, sim, {out, c.net("ro_n0"), en}, 25.0);
  trace.run_until(20000.0);

  std::ostringstream os;
  trace.write(os);
  const std::string vcd = os.str();
  support::Sha256 h;
  h.update(vcd);
  const std::string hex = support::Sha256::hex(h.finish());
  if (std::getenv("DHTRNG_REGEN_GOLDEN") != nullptr) {
    std::printf("VcdGolden digest: %s (changes=%zu)\n", hex.c_str(),
                trace.change_count());
    GTEST_SKIP() << "regeneration mode";
  }
  EXPECT_EQ(hex, kVcdGoldenDigest);
}

}  // namespace
}  // namespace dhtrng::sim
