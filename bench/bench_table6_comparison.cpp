// Table 6 + Figure 1(b): comparison with prior FPGA TRNGs on Artix-7 in
// LUTs / DFFs / slices / throughput / power and the figure of merit
// Throughput / (Slices * Power).
//
// Rows marked [model] are measured from our re-implemented behavioural
// baselines and the area/power models; rows marked [cited] carry the
// numbers published in the paper's Table 6 for designs we did not
// re-implement.  The quantity under test is the *ordering* and the ~2.6x
// FoM lead of DH-TRNG over the best prior art (DAC'23).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/baselines/coso_trng.h"
#include "core/baselines/latch_trng.h"
#include "core/baselines/tero_trng.h"
#include "core/dhtrng.h"
#include "core/zoo/zoo.h"
#include "fpga/power.h"
#include "fpga/slice_packer.h"

namespace {

struct Row {
  std::string design;
  std::string kind;  // "cited" or "model"
  std::size_t luts, dffs, slices;
  double throughput_mbps;
  double power_w;
  double fom() const {
    return throughput_mbps / (static_cast<double>(slices) * power_w);
  }
};

Row measure(dhtrng::core::TrngSource& trng, const std::string& name,
            const dhtrng::fpga::DeviceModel& device, std::size_t slices) {
  const auto rc = trng.resources();
  const auto power = dhtrng::fpga::estimate_power(device, trng.activity());
  return {name,      "model", rc.luts,        rc.dffs, slices,
          trng.throughput_mbps(), power.total_w()};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dhtrng;
  bench::accept_flags(argc, argv, {});

  bench::header("Table 6 / Figure 1(b) - comparison with prior art",
                "DH-TRNG paper, Table 6 (Section 4.6), all on Artix-7");

  const auto a7 = fpga::DeviceModel::artix7();
  std::vector<Row> rows;

  // Cited rows (values from the paper's Table 6).
  rows.push_back({"FPL'20 [12]", "cited", 40, 29, 10, 1.91, 0.043});
  rows.push_back({"TCASI'21 [14]", "cited", 56, 19, 18, 100.0, 0.068});
  rows.push_back({"TCASI'22 [15]", "cited", 32, 55, 33, 12.5, 0.063});
  rows.push_back({"TCASII'22 [16]", "cited", 38, 121, 38, 300.0, 0.119});
  rows.push_back({"TC'23 [17]", "cited", 152, 16, 40, 1.25, 0.023});

  // Modelled rows: behavioural re-implementations + our power model.
  {
    core::TeroTrng tero({.device = a7, .seed = 4});
    rows.push_back(measure(tero, "FPL'20 [12] (model)", a7, 10));
  }
  {
    core::LatchTrng latch({.device = a7, .seed = 1});
    rows.push_back(measure(latch, "TCASII'21 [13]", a7, 1));
  }
  {
    core::CosoTrng coso({.device = a7, .seed = 2});
    Row r = measure(coso, "DAC'23 [3]", a7, 13);
    rows.push_back(r);
    // Same design with its *published* power (0.049 W), the value the
    // paper's FoM 432.97 is computed from.
    r.design = "DAC'23 [3] pub-power";
    r.kind = "cited";
    r.power_w = 0.049;
    rows.push_back(r);
  }
  // Entropy-source zoo rows (core/zoo/): re-implemented alternative
  // front-ends at their default design points, same area/power models.
  // Marked "zoo" so they are excluded from the Figure 1(b) prior-art
  // comparison — they are our exploratory models, not published rows
  // (see `trng_tool compare` for the full cross-architecture report).
  {
    core::NeoTrng neo({.device = a7, .seed = 5});
    Row r = measure(neo, "neoTRNG (model)", a7,
                    neo.slice_report().slice_count());
    r.kind = "zoo";
    rows.push_back(r);
  }
  {
    core::KleinTrng klein({.device = a7, .seed = 6});
    Row r = measure(klein, "Klein-RO (model)", a7,
                    klein.slice_report().slice_count());
    r.kind = "zoo";
    rows.push_back(r);
  }
  {
    core::HbnTrng hbn({.device = a7, .seed = 7});
    Row r = measure(hbn, "HBN (model)", a7,
                    hbn.slice_report().slice_count());
    r.kind = "zoo";
    rows.push_back(r);
  }
  {
    core::DhTrng dh({.device = a7, .seed = 3});
    const std::size_t slices = dh.slice_report().slice_count();
    rows.push_back(measure(dh, "This work (DH-TRNG)", a7, slices));
  }

  std::printf("%-20s %-6s %5s %5s %7s %12s %8s %12s\n", "design", "kind",
              "LUTs", "DFFs", "slices", "thput(Mbps)", "power(W)",
              "FoM=T/(S*P)");
  const Row* best_prior = nullptr;
  const Row* this_work = nullptr;
  for (const Row& r : rows) {
    std::printf("%-20s %-6s %5zu %5zu %7zu %12.2f %8.3f %12.1f\n",
                r.design.c_str(), r.kind.c_str(), r.luts, r.dffs, r.slices,
                r.throughput_mbps, r.power_w, r.fom());
    if (r.design.find("This work") != std::string::npos) {
      this_work = &r;
    } else if (r.kind != "zoo" &&
               (best_prior == nullptr || r.fom() > best_prior->fom())) {
      best_prior = &r;
    }
  }
  std::printf("\npaper reference row: This work = 23 LUTs, 14 DFFs, 8 slices, "
              "620 Mbps, 0.068 W, FoM 1139.7\n");
  if (this_work != nullptr && best_prior != nullptr) {
    std::printf("figure 1(b): DH-TRNG FoM / best prior (%s) = %.2fx "
                "(paper: 2.63x over DAC'23)\n",
                best_prior->design.c_str(),
                this_work->fom() / best_prior->fom());
    std::printf("             against DAC'23 at its published power: %.2fx\n",
                this_work->fom() / (275.8 / (13.0 * 0.049)));
    std::printf("ordering check: DH-TRNG has the highest throughput (%s) and "
                "the highest FoM (%s)\n",
                this_work->throughput_mbps >= 300.0 ? "yes" : "NO",
                this_work->fom() > best_prior->fom() ? "yes" : "NO");
  }
  return 0;
}
