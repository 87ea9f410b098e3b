// Statistical-engine microbenchmark: the Wordwise 64-bit kernels vs the
// Scalar bit-at-a-time oracle on SP 800-22 and SP 800-90B, with
// machine-readable JSON output (BENCH_stats.json) so CI can track the perf
// trajectory.
//
// The bench runs the full suites on the same stream under both engines,
// asserts the results are bit-identical (exact double equality on every
// p-value / h_min — the engines are required to match to the last ulp),
// and reports ns/bit per engine plus the speedup per test and per suite.
//
// The CI regression gate compares *speedups*, not absolute ns/bit: the
// ratio wordwise/scalar on the same machine in the same run is stable
// across hardware, so a checked-in baseline (bench/BENCH_stats_baseline.json)
// stays meaningful on any runner.  The committed baseline carries only the
// suite aggregates — per-test rows are sub-millisecond in --quick mode and
// too noisy to gate; cases missing from the baseline are skipped.
//
// Flags:
//   --quick              short run (CI); default is 1 Mbit
//   --kbits=<n>          override the stream length in kilobits
//   --seed=<n>           stream seed (default 1)
//   --reps=<n>           repetitions per engine, best-of (default 3);
//                        wall time is min-of-reps so scheduling noise on
//                        busy runners doesn't fabricate regressions
//   --out=<path>         JSON output path (default BENCH_stats.json)
//   --trajectory=<path>  JSONL perf-trajectory log to append the suite
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
#include "stats/sp800_22.h"
#include "stats/sp800_90b.h"
#include "stats/stats_config.h"
#include "support/bitstream.h"
#include "support/rng.h"

namespace {

using dhtrng::stats::Engine;
using dhtrng::stats::ScopedEngine;
using dhtrng::support::BitStream;

struct SuiteRun {
  double total_s = 0.0;                 ///< min-of-reps whole-suite wall
  std::vector<double> test_s;           ///< min-of-reps per-test wall
  std::vector<dhtrng::stats::sp800_22::TestResult> results;  ///< first rep
};

SuiteRun run_sp800_22(const BitStream& bits, Engine engine, int reps) {
  ScopedEngine guard(engine);
  SuiteRun run;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    auto results = dhtrng::stats::sp800_22::run_all(bits);
    const auto t1 = std::chrono::steady_clock::now();
    const double total = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0) {
      run.total_s = total;
      run.test_s.reserve(results.size());
      for (const auto& r : results) run.test_s.push_back(r.wall_s);
      run.results = std::move(results);
    } else {
      run.total_s = std::min(run.total_s, total);
      for (std::size_t t = 0; t < results.size(); ++t) {
        run.test_s[t] = std::min(run.test_s[t], results[t].wall_s);
      }
    }
  }
  return run;
}

struct EstimatorRun {
  double total_s = 0.0;
  std::vector<dhtrng::stats::sp800_90b::EstimatorResult> results;
};

EstimatorRun run_sp800_90b(const BitStream& bits, Engine engine, int reps) {
  ScopedEngine guard(engine);
  EstimatorRun run;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    auto results = dhtrng::stats::sp800_90b::run_all(bits);
    const auto t1 = std::chrono::steady_clock::now();
    const double total = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0) {
      run.total_s = total;
      run.results = std::move(results);
    } else {
      run.total_s = std::min(run.total_s, total);
    }
  }
  return run;
}

struct CaseResult {
  std::string name;
  double wordwise_ns_per_bit = 0.0;
  double scalar_ns_per_bit = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

CaseResult make_case(const std::string& name, std::size_t n, double word_s,
                     double scalar_s, bool identical) {
  CaseResult r;
  r.name = name;
  r.wordwise_ns_per_bit = word_s * 1e9 / static_cast<double>(n);
  r.scalar_ns_per_bit = scalar_s * 1e9 / static_cast<double>(n);
  r.speedup = scalar_s / word_s;
  r.identical = identical;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using dhtrng::bench::flag;
  using dhtrng::bench::flag_set;
  using dhtrng::bench::flag_str;

  const bool quick = flag_set(argc, argv, "quick");
  const std::size_t n = static_cast<std::size_t>(
      flag(argc, argv, "kbits", quick ? 200 : 1000)) * 1000;
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flag(argc, argv, "seed", 1));
  const int reps = static_cast<int>(flag(argc, argv, "reps", 3));
  const std::string out_path = flag_str(argc, argv, "out", "BENCH_stats.json");
  const std::string traj_path = flag_str(argc, argv, "trajectory",
                                         dhtrng::bench::trajectory_path("stats"));

  dhtrng::bench::header(
      "stats microbench: wordwise statistical engine vs scalar oracle",
      "statistics-engine speedup (repo infrastructure; not a paper table)");
  std::printf("config: %zu kbit stream, seed %llu, best of %d%s\n\n", n / 1000,
              static_cast<unsigned long long>(seed), reps,
              quick ? " (--quick)" : "");

  dhtrng::support::SplitMix64 rng(seed);
  BitStream bits;
  bits.reserve(n);
  for (std::size_t i = 0; i < n; ++i) bits.push_back(rng.next() & 1);

  const SuiteRun word = run_sp800_22(bits, Engine::Wordwise, reps);
  const SuiteRun scalar = run_sp800_22(bits, Engine::Scalar, reps);
  const EstimatorRun word_90b = run_sp800_90b(bits, Engine::Wordwise, reps);
  const EstimatorRun scalar_90b = run_sp800_90b(bits, Engine::Scalar, reps);

  std::vector<CaseResult> results;
  bool all_identical = true;

  std::printf("%-26s %14s %14s %9s %10s\n", "test", "wordwise ns/b",
              "scalar ns/b", "speedup", "identical");
  for (std::size_t t = 0; t < word.results.size(); ++t) {
    const auto& w = word.results[t];
    const auto& s = scalar.results[t];
    const bool identical = w.name == s.name && w.applicable == s.applicable &&
                           w.p_values == s.p_values;
    CaseResult r =
        make_case(w.name, n, word.test_s[t], scalar.test_s[t], identical);
    std::printf("%-26s %14.3f %14.3f %8.2fx %10s\n", r.name.c_str(),
                r.wordwise_ns_per_bit, r.scalar_ns_per_bit, r.speedup,
                identical ? "yes" : "NO");
    all_identical = all_identical && identical;
    results.push_back(std::move(r));
  }
  results.push_back(make_case("sp800_22_total", n, word.total_s,
                              scalar.total_s, all_identical));

  bool identical_90b = word_90b.results.size() == scalar_90b.results.size();
  for (std::size_t t = 0; identical_90b && t < word_90b.results.size(); ++t) {
    const auto& w = word_90b.results[t];
    const auto& s = scalar_90b.results[t];
    identical_90b = w.name == s.name && w.p_max == s.p_max && w.h_min == s.h_min;
  }
  all_identical = all_identical && identical_90b;
  results.push_back(make_case("sp800_90b_total", n, word_90b.total_s,
                              scalar_90b.total_s, identical_90b));

  for (std::size_t t = results.size() - 2; t < results.size(); ++t) {
    const CaseResult& r = results[t];
    std::printf("%-26s %14.3f %14.3f %8.2fx %10s\n", r.name.c_str(),
                r.wordwise_ns_per_bit, r.scalar_ns_per_bit, r.speedup,
                r.identical ? "yes" : "NO");
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"stats_microbench\",\n";
  json << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n";
  json << "  \"kbits\": " << n / 1000 << ",\n";
  json << "  \"seed\": " << seed << ",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    json << "    {\"name\": \"" << r.name << "\", \"ns_per_bit_wordwise\": "
         << r.wordwise_ns_per_bit << ", \"ns_per_bit_scalar\": "
         << r.scalar_ns_per_bit << ", \"speedup\": " << r.speedup
         << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  {
    std::ofstream out(out_path);
    out << json.str();
  }
  std::printf("\nwrote %s\n", out_path.c_str());

  for (std::size_t t = results.size() - 2; t < results.size(); ++t) {
    const CaseResult& r = results[t];
    std::ostringstream extra;
    extra << "\"case\": \"" << r.name << "\", \"speedup\": " << r.speedup
          << ", \"ns_per_bit_scalar\": " << r.scalar_ns_per_bit
          << ", \"kbits\": " << n / 1000;
    dhtrng::bench::append_trajectory(traj_path, "stats_microbench",
                                     r.wordwise_ns_per_bit,
                                     1000.0 / r.wordwise_ns_per_bit,
                                     extra.str());
  }

  if (!all_identical) {
    std::printf("FAIL: engines disagree — results not bit-identical\n");
    return 1;
  }

  // The baseline gates the suite aggregates only; per-test rows skip.
  std::vector<dhtrng::bench::GatedRatio> ratios;
  for (const CaseResult& r : results) {
    ratios.push_back({r.name, r.speedup, "speedup", r.name});
  }
  return dhtrng::bench::baseline_gate(argc, argv, ratios,
                                      dhtrng::bench::IfMissing::Skip);
}
