// Figure 7: bitstream image — 256x256 bits rendered as black/white pixels
// (and the inverted image).  A uniform pepper-and-salt field with no
// visible texture is the pass criterion; we also print quadrant counts and
// write the PBM files next to the binary.
#include <cstdio>
#include <fstream>

#include "bench_util.h"
#include "core/dhtrng.h"
#include "stats/correlation.h"

int main(int argc, char** argv) {
  using namespace dhtrng;
  bench::accept_flags(argc, argv, {"side"});
  const auto side = static_cast<std::size_t>(bench::flag(argc, argv, "side", 256));

  bench::header("Figure 7 - bitstream image", "DH-TRNG paper, Section 4.3");

  core::DhTrng trng({.device = fpga::DeviceModel::artix7(), .seed = 7});
  const auto bits = trng.generate(side * side);

  for (bool invert : {false, true}) {
    const std::string path =
        std::string("fig7_bitstream") + (invert ? "_inverted" : "") + ".pbm";
    std::ofstream out(path);
    out << bits.to_pbm(side, side, invert);
    std::printf("wrote %s (%zux%zu)\n", path.c_str(), side, side);
  }

  // Uniformity evidence: ones density per quadrant and overall bias.
  std::printf("\nquadrant ones density (expect ~0.5 each):\n");
  const std::size_t half = side / 2;
  for (std::size_t qy = 0; qy < 2; ++qy) {
    for (std::size_t qx = 0; qx < 2; ++qx) {
      std::size_t ones = 0;
      for (std::size_t y = 0; y < half; ++y) {
        ones += bits.count_ones((qy * half + y) * side + qx * half, half);
      }
      std::printf("  Q(%zu,%zu): %.4f", qx, qy,
                  static_cast<double>(ones) / static_cast<double>(half * half));
    }
    std::printf("\n");
  }
  std::printf("overall bias: %.4f%% (uniform black/white as in the paper)\n",
              stats::bias_percent(bits));
  return 0;
}
