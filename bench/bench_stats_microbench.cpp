// Statistical-kernel microbenchmark: every counting kernel of the SP 800-22,
// SP 800-90B, FIPS 140-2 and AIS-31 suites (src/stats/kernels.h) against
// its bit-at-a-time oracle (tests/support/stats_oracle.h) on the same
// stream, with machine-readable JSON output (BENCH_stats.json) so CI can
// track the perf trajectory.
//
// Each kernel and its oracle run on the same stream with the parameters
// their suite uses; the bench requires the two results to be identical
// (exact integer and double bit-pattern equality) and exits 1 when any
// pair differs.  It reports ns/bit for both sides and the speedup per
// kernel, and two aggregates: the summed SP 800-22 kernels and the summed
// SP 800-90B kernels (sp800_22_kernels, sp800_90b_kernels).
//
// The CI regression gate compares *speedups*, not absolute ns/bit: the
// ratio oracle/kernel on the same machine in the same run is stable across
// hardware, so a checked-in baseline (bench/BENCH_stats_baseline.json)
// stays meaningful on any runner.  Only the two aggregates are gated, and
// a baseline without either entry fails the run; per-kernel rows are
// sub-millisecond in --quick mode and are printed but not gated.
//
// Flags:
//   --quick              short run (CI); default is 1 Mbit
//   --kbits=<n>          override the stream length in kilobits
//   --seed=<n>           stream seed (default 1)
//   --reps=<n>           timed repetitions per side, best-of (default 3);
//                        wall time is min-of-reps so scheduling noise on
//                        busy runners doesn't fabricate regressions
//   --out=<path>         JSON output path (default BENCH_stats.json)
//   --trajectory=<path>  JSONL perf-trajectory log to append the
//                        aggregates to (default
//                        bench/trajectory/BENCH_stats_trajectory.jsonl)
//   --baseline=<path>    compare speedups against a baseline JSON;
//                        exit 1 on >--max-regress-pct regression
//   --max-regress-pct=<p> allowed speedup regression in percent (default 20)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "support/bitstream.h"
#include "support/rng.h"
#include "support/stats_oracle.h"

namespace {

using dhtrng::stats::oracle::KernelCase;
using dhtrng::support::BitStream;

struct CaseResult {
  std::string name;
  double kernel_s = 0.0;  ///< min-of-reps wall
  double oracle_s = 0.0;
  bool identical = false;
};

/// Min-of-reps wall of `fn(bits)`, with its first result in `out`.
template <class F>
double best_seconds(const F& fn, const BitStream& bits, int reps,
                    KernelCase::Words* out) {
  double best = -1.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    KernelCase::Words w = fn(bits);
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    if (rep == 0) *out = std::move(w);
    if (best < 0.0 || s < best) best = s;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  dhtrng::bench::accept_flags(argc, argv,
                              {"kbits", "reps", "seed", "out", "trajectory",
                               "baseline", "max-regress-pct"},
                              {"quick"});
  using dhtrng::bench::flag;
  using dhtrng::bench::flag_set;
  using dhtrng::bench::flag_str;

  const bool quick = flag_set(argc, argv, "quick");
  const std::size_t n = static_cast<std::size_t>(
      flag(argc, argv, "kbits", quick ? 200 : 1000)) * 1000;
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flag(argc, argv, "seed", 1));
  const int reps = std::max(1, static_cast<int>(flag(argc, argv, "reps", 3)));
  const std::string out_path = flag_str(argc, argv, "out", "BENCH_stats.json");
  const std::string traj_path = flag_str(argc, argv, "trajectory",
                                         dhtrng::bench::trajectory_path("stats"));

  dhtrng::bench::header(
      "stats microbench: statistical kernels vs bit-at-a-time oracle",
      "statistics-kernel speedup (repo infrastructure; not a paper table)");
  std::printf("config: %zu kbit stream, seed %llu, best of %d%s\n\n", n / 1000,
              static_cast<unsigned long long>(seed), reps,
              quick ? " (--quick)" : "");

  dhtrng::support::SplitMix64 rng(seed);
  BitStream bits;
  bits.reserve(n);
  for (std::size_t i = 0; i < n; ++i) bits.push_back(rng.next() & 1);

  // Per-kernel rows, then one aggregate per gated suite.
  const std::vector<std::pair<std::string, std::string>> aggregates = {
      {"sp800_22", "sp800_22_kernels"}, {"sp800_90b", "sp800_90b_kernels"}};
  std::vector<CaseResult> rows;
  std::vector<CaseResult> totals;
  for (const auto& [suite, name] : aggregates) {
    totals.push_back({name, 0.0, 0.0, true});
  }
  bool all_identical = true;

  const auto ns_per_bit = [&](double s) {
    return s * 1e9 / static_cast<double>(n);
  };
  const auto print_row = [&](const CaseResult& r) {
    std::printf("%-32s %12.3f %12.3f %8.2fx %10s\n", r.name.c_str(),
                ns_per_bit(r.kernel_s), ns_per_bit(r.oracle_s),
                r.oracle_s / r.kernel_s, r.identical ? "yes" : "NO");
  };
  std::printf("%-32s %12s %12s %9s %10s\n", "kernel", "kernel ns/b",
              "oracle ns/b", "speedup", "identical");
  for (const KernelCase& c : dhtrng::stats::oracle::kernel_cases()) {
    CaseResult r;
    r.name = c.suite + "/" + c.name;
    KernelCase::Words kernel_out, oracle_out;
    c.kernel(bits);  // warm-up: caches, lazily built tables
    r.kernel_s = best_seconds(c.kernel, bits, reps, &kernel_out);
    r.oracle_s = best_seconds(c.oracle, bits, reps, &oracle_out);
    r.identical = kernel_out == oracle_out;
    all_identical = all_identical && r.identical;
    for (std::size_t a = 0; a < aggregates.size(); ++a) {
      if (aggregates[a].first != c.suite) continue;
      totals[a].kernel_s += r.kernel_s;
      totals[a].oracle_s += r.oracle_s;
      totals[a].identical = totals[a].identical && r.identical;
    }
    print_row(r);
    rows.push_back(std::move(r));
  }
  for (const CaseResult& t : totals) print_row(t);

  std::ostringstream json;
  json << "{\n  \"bench\": \"stats_microbench\",\n";
  json << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n";
  json << "  \"kbits\": " << n / 1000 << ",\n";
  json << "  \"seed\": " << seed << ",\n  \"cases\": [\n";
  rows.insert(rows.end(), totals.begin(), totals.end());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CaseResult& r = rows[i];
    json << "    {\"name\": \"" << r.name << "\", \"ns_per_bit_kernel\": "
         << ns_per_bit(r.kernel_s) << ", \"ns_per_bit_oracle\": "
         << ns_per_bit(r.oracle_s) << ", \"speedup\": "
         << r.oracle_s / r.kernel_s
         << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  {
    std::ofstream out(out_path);
    out << json.str();
  }
  std::printf("\nwrote %s\n", out_path.c_str());

  std::vector<dhtrng::bench::GatedRatio> ratios;
  for (const CaseResult& t : totals) {
    const double speedup = t.oracle_s / t.kernel_s;
    std::ostringstream extra;
    extra << "\"case\": \"" << t.name << "\", \"speedup\": " << speedup
          << ", \"ns_per_bit_oracle\": " << ns_per_bit(t.oracle_s)
          << ", \"kbits\": " << n / 1000;
    dhtrng::bench::append_trajectory(traj_path, "stats_microbench",
                                     ns_per_bit(t.kernel_s),
                                     1000.0 / ns_per_bit(t.kernel_s),
                                     extra.str());
    ratios.push_back({t.name, speedup, "speedup", t.name});
  }

  if (!all_identical) {
    std::printf("FAIL: a kernel disagrees with its oracle\n");
    return 1;
  }
  return dhtrng::bench::baseline_gate(argc, argv, ratios,
                                      dhtrng::bench::IfMissing::Fail);
}
