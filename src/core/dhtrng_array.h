// Multi-core DH-TRNG array — the scaling path for the "substantial amounts
// of encrypted data" scenarios the paper's introduction motivates
// (confidential computing, TEEs, blockchain signing).  k independent
// DH-TRNG cores share one PLL/clock network and interleave their output
// for k bits per clock cycle.
//
// Because the clock manager dominates the power budget (see fpga/power.h)
// and is shared, the *energy per generated bit* improves steeply with k —
// quantified in bench_scaling.
#pragma once

#include <cstdint>
#include <vector>

#include "core/dhtrng.h"
#include "core/trng.h"

namespace dhtrng::core {

struct DhTrngArrayConfig {
  DhTrngConfig core;      ///< per-core configuration (seed is re-derived)
  std::size_t cores = 4;  ///< parallel DH-TRNG instances
};

class DhTrngArray final : public TrngSource {
 public:
  explicit DhTrngArray(DhTrngArrayConfig config);

  std::string name() const override;
  bool next_bit() override;
  void restart() override;

  sim::ResourceCounts resources() const override;
  double clock_mhz() const override;
  double throughput_mbps() const override;
  fpga::ActivityEstimate activity() const override;

  std::size_t cores() const { return cores_.size(); }
  fpga::SliceReport slice_report() const;

 private:
  DhTrngArrayConfig config_;
  std::vector<DhTrng> cores_;
  std::size_t next_core_ = 0;
};

}  // namespace dhtrng::core
