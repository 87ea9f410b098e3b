#include "stats/report.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "stats/attack.h"
#include "stats/correlation.h"
#include "stats/fips140.h"
#include "stats/restart.h"
#include "stats/restart_matrix.h"
#include "stats/sp800_22.h"
#include "stats/sp800_90b.h"

namespace dhtrng::stats {

CharacterizationReport characterize(core::TrngSource& trng,
                                    ReportOptions options) {
  std::ostringstream os;
  bool ok = true;
  const auto flag = [&](bool pass) {
    ok = ok && pass;
    return pass ? "ok  " : "FAIL";
  };

  os << "TRNG characterization: " << trng.name() << "\n";
  os << "throughput: " << trng.throughput_mbps() << " Mbps, resources: "
     << trng.resources().luts << " LUT / " << trng.resources().muxes
     << " MUX / " << trng.resources().dffs << " DFF\n";
  os << "sample: " << options.sample_bits << " bits\n\n";

  const support::BitStream bits = trng.generate(options.sample_bits);

  // --- basic screen ---------------------------------------------------------
  const double bias = bias_percent(bits);
  os << "[" << flag(bias < 1.0) << "] bias                 " << bias << " %\n";
  double max_acf = 0.0;
  for (double a : autocorrelation(bits, 100)) {
    max_acf = std::max(max_acf, std::abs(a));
  }
  os << "[" << flag(max_acf < 0.3) << "] max |ACF| (1..100)   " << max_acf
     << "\n";

  // --- FIPS 140-2 power-up --------------------------------------------------
  for (const auto& o : fips140::run_all(bits)) {
    os << "[" << flag(o.pass) << "] FIPS 140-2 " << o.name << "\n";
  }

  // --- SP 800-90B -----------------------------------------------------------
  double overall = 1.0;
  for (const auto& r : sp800_90b::run_all(bits)) {
    overall = std::min(overall, r.h_min);
  }
  os << "[" << flag(overall >= options.claimed_min_entropy * 0.8)
     << "] SP 800-90B overall   h-min " << overall << " (claimed "
     << options.claimed_min_entropy << ")\n";
  const auto iid = sp800_90b::permutation_iid_test(
      bits.slice(0, std::min<std::size_t>(bits.size(), 20000)),
      options.iid_permutations, 17);
  os << "[" << flag(iid.iid_assumption_holds) << "] SP 800-90B IID       "
     << iid.permutations << " permutations\n";

  // --- ML attack -------------------------------------------------------------
  const auto attack = logistic_attack(bits);
  os << "[" << flag(!attack.predictable()) << "] ML prediction        "
     << attack.test_accuracy << " accuracy (z=" << attack.z_score << ")\n";

  // --- SP 800-22 quick battery ------------------------------------------------
  const auto results = sp800_22::run_all(bits);
  std::size_t passed = 0, total = 0;
  for (const auto& r : results) {
    if (!r.applicable) continue;
    ++total;
    passed += r.pass() ? 1u : 0u;
  }
  os << "[" << flag(passed + 1 >= total) << "] SP 800-22            "
     << passed << "/" << total << " tests\n";
  for (const auto& r : results) {
    os << "       " << r.name;
    for (std::size_t pad = r.name.size(); pad < 24; ++pad) os << ' ';
    if (r.applicable) {
      os << "p " << r.p_value();
    } else {
      os << "not applicable";
    }
    os << "\n";
  }

  // --- restart behaviour -------------------------------------------------------
  const auto rt = restart_test(trng);
  os << "[" << flag(rt.all_distinct) << "] restart words        "
     << (rt.all_distinct ? "all distinct" : "REPEATED") << "\n";
  // 200 x 200: small enough to be quick, large enough that the min over
  // per-row/column MCV confidence bounds clears the h/2 gate on a
  // healthy source.
  const auto rm = restart_matrix_test(trng, 200, 200, 32);
  os << "[" << flag(rm.passes(options.claimed_min_entropy))
     << "] restart matrix       rows " << rm.row_min_entropy << " cols "
     << rm.column_min_entropy << " (startup discard 32)\n";

  os << "\nverdict: " << (ok ? "ALL CLEAR" : "ISSUES FOUND") << "\n";
  CharacterizationReport report;
  report.text = os.str();
  report.all_clear = ok;
  return report;
}

}  // namespace dhtrng::stats
