#include "trng_noise_mode.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace dhtrng::tool {
namespace {

using noise::NoiseMode;

TEST(TrngToolNoiseMode, EveryBackendAndModePair) {
  struct Case {
    const char* backend;
    const char* flag;  ///< --noise-mode value, "" when absent
    NoiseMode drawn;
  };
  constexpr NoiseMode kFast = NoiseMode::Fast;
  constexpr NoiseMode kExact = NoiseMode::Exact;
  const Case cases[] = {
      {"soa", "", kFast},      {"soa", "fast", kFast},
      {"soa", "exact", kExact},
      {"gate", "", kExact},    {"gate", "fast", kFast},
      {"gate", "exact", kExact},
      {"fast", "", kExact},    {"fast", "fast", kExact},
      {"fast", "exact", kExact},
      {"neo", "", kExact},     {"neo", "fast", kExact},
      {"neo", "exact", kExact},
      {"klein", "", kExact},   {"klein", "fast", kExact},
      {"klein", "exact", kExact},
      {"hbn", "", kExact},     {"hbn", "fast", kExact},
      {"hbn", "exact", kExact},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string("--backend=") + c.backend + " --noise-mode=" +
                 c.flag);
    const NoiseMode drawn = drawn_noise_mode(c.backend, c.flag);
    EXPECT_EQ(drawn, c.drawn);
    EXPECT_STREQ(noise_mode_name(drawn),
                 c.drawn == kFast ? "fast" : "exact");
  }
}

TEST(TrngToolNoiseMode, UnknownModeIsRejectedForEveryBackend) {
  for (const char* backend : {"soa", "gate", "fast", "neo"}) {
    SCOPED_TRACE(backend);
    EXPECT_THROW(drawn_noise_mode(backend, "turbo"), std::runtime_error);
  }
}

}  // namespace
}  // namespace dhtrng::tool
