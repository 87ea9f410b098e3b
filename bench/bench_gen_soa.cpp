// Bulk-generation microbenchmark: the bitsliced SoA backend (DhTrngSoA,
// 64 instances per 64-bit word) against the scalar per-instance path
// (DhTrngArray::generate on a one-core array), with machine-readable
// JSON output (BENCH_gen.json) and a perf-trajectory record so CI can
// track the numbers across commits.
//
// Like bench_sim_microbench, the CI regression gate compares the
// *speedup* (scalar ns/bit over SoA ns/bit) rather than absolute rates:
// both paths run on the same machine in the same process, so the ratio is
// stable across runners and the checked-in bench/BENCH_gen_baseline.json
// stays meaningful anywhere.  The SoA side runs on the active SIMD tier
// (scalar, avx2, avx512 or neon), which the header, the JSON and the
// trajectory row name, so a speedup can be read per tier.
//
// Flags:
//   --quick               short run (CI); default sizes a longer run
//   --bits=<n>            bits generated per rep on each path
//   --seed=<n>            master seed (default 1)
//   --reps=<n>            best-of reps after one warmup rep (default 3)
//   --out=<path>          JSON output path (default BENCH_gen.json)
//   --trajectory=<path>   JSON-lines trajectory file to append to
//                         (default bench/trajectory/BENCH_gen_trajectory.jsonl)
//   --baseline=<path>     compare speedup against a baseline JSON;
//                         exit 1 on >--max-regress-pct regression
//   --max-regress-pct=<p> allowed speedup regression in percent (default 20)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/dhtrng_array.h"
#include "core/dhtrng_soa.h"
#include "support/bitstream.h"
#include "support/simd_noise.h"

int main(int argc, char** argv) {
  dhtrng::bench::accept_flags(argc, argv,
                              {"bits", "reps", "seed", "out", "trajectory",
                               "baseline", "max-regress-pct"},
                              {"quick"});
  using dhtrng::bench::flag;
  using dhtrng::bench::flag_set;
  using dhtrng::bench::flag_str;

  const bool quick = flag_set(argc, argv, "quick");
  const std::size_t nbits = static_cast<std::size_t>(
      flag(argc, argv, "bits", quick ? 256000 : 1024000));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flag(argc, argv, "seed", 1));
  const int reps = static_cast<int>(flag(argc, argv, "reps", 3));
  const std::string out_path = flag_str(argc, argv, "out", "BENCH_gen.json");
  const std::string traj_path =
      flag_str(argc, argv, "trajectory",
               dhtrng::bench::trajectory_path("gen"));

  dhtrng::bench::header(
      "gen microbench: bitsliced SoA backend vs scalar per-instance path",
      "bulk-generation speedup (repo infrastructure; not a paper table)");
  const char* tier =
      dhtrng::support::simd::tier_name(dhtrng::support::simd::active_tier());
  std::printf("config: %zu bits per rep, seed %llu, best of %d%s, "
              "simd tier %s\n\n",
              nbits, static_cast<unsigned long long>(seed), reps,
              quick ? " (--quick)" : "", tier);

  // Scalar path: one DH-TRNG instance advanced on one thread (the SoA
  // acceptance metric is per-core).
  dhtrng::core::DhTrngArrayConfig scalar_cfg;
  scalar_cfg.core.seed = seed;
  scalar_cfg.cores = 1;
  dhtrng::core::DhTrngArray scalar(scalar_cfg);
  const double scalar_s = dhtrng::bench::best_of_seconds(reps, [&] {
    dhtrng::support::BitStream bits = scalar.generate(nbits);
    if (bits.size() != nbits) std::abort();
  });

  // SoA path: 64 bitsliced instances per word, fast noise engine.
  dhtrng::core::DhTrngSoAConfig soa_cfg;
  soa_cfg.core.seed = seed;
  dhtrng::core::DhTrngSoA soa(soa_cfg);
  const std::size_t nwords = nbits / 64;
  std::vector<std::uint64_t> words(nwords);
  const double soa_s = dhtrng::bench::best_of_seconds(reps, [&] {
    soa.generate_words(words.data(), nwords);
  });

  const double scalar_ns_bit = scalar_s * 1e9 / static_cast<double>(nbits);
  const double soa_ns_bit =
      soa_s * 1e9 / static_cast<double>(nwords * 64);
  const double scalar_mbps = 1e3 / scalar_ns_bit;
  const double soa_mbps = 1e3 / soa_ns_bit;
  const double speedup = scalar_ns_bit / soa_ns_bit;

  std::printf("%-28s %10.1f ns/bit  %8.2f Mbit/s\n",
              "scalar (array, 1 thread)", scalar_ns_bit, scalar_mbps);
  std::printf("%-28s %10.1f ns/bit  %8.2f Mbit/s\n", "SoA (64 lanes)",
              soa_ns_bit, soa_mbps);
  std::printf("%-28s %9.2fx\n\n", "speedup", speedup);

  std::ostringstream json;
  json << "{\n  \"bench\": \"gen_soa\",\n";
  json << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n";
  json << "  \"bits\": " << nbits << ",\n  \"seed\": " << seed << ",\n";
  json << "  \"simd_tier\": \"" << tier << "\",\n";
  json << "  \"scalar_ns_per_bit\": " << scalar_ns_bit << ",\n";
  json << "  \"soa_ns_per_bit\": " << soa_ns_bit << ",\n";
  json << "  \"scalar_mbit_per_s\": " << scalar_mbps << ",\n";
  json << "  \"soa_mbit_per_s\": " << soa_mbps << ",\n";
  json << "  \"speedup\": " << speedup << "\n}\n";
  {
    std::ofstream out(out_path);
    out << json.str();
  }
  dhtrng::bench::append_trajectory(
      traj_path, "gen_soa", soa_ns_bit, soa_mbps,
      "\"speedup_vs_scalar\": " + std::to_string(speedup) +
          ", \"simd_tier\": \"" + tier + "\"");
  std::printf("wrote %s and appended %s\n", out_path.c_str(),
              traj_path.c_str());

  return dhtrng::bench::baseline_gate(
      argc, argv, {{"speedup", speedup, "speedup", ""}},
      dhtrng::bench::IfMissing::Fail);
}
