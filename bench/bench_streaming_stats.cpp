// Streaming-certification microbenchmark: the stats::streaming
// SourceTracker feed path against the entropy pool's bulk generation, with
// machine-readable JSON output (BENCH_streaming.json) and a perf-trajectory
// record so CI can track the numbers across commits.
//
// The tracker rides the pool's producer loop — every byte a producer
// pushes is also fed through the incremental SP 800-22/90B accumulators —
// so the acceptance criterion is *overhead*: feeding a block must cost
// less than 10% of generating it.  The bench times three lanes on the
// same buffer:
//
//   generate  — the producer path's bulk generation (a DhTrng source
//               drained bit-by-bit and packed MSB-first into bytes; the
//               pool's producer fills a BitStream through
//               TrngSource::generate and packs it a word at a time, so
//               for a scalar source the per-bit cost is the same)
//   track     — SourceTracker::feed_bytes over the generated buffer
//   snapshot  — the CERT-verb cost: merge four per-producer trackers and
//               take the pool-wide snapshot (reported, not gated)
//
// Hard gate: track/generate < 10% or the bench exits 1.
//
// The CI regression gate additionally compares the *headroom ratio*
// (generate seconds over track seconds, reported under the "speedup" key
// like the other gated benches) against bench/BENCH_streaming_baseline.json:
// both lanes run on the same machine in the same process, so the ratio is
// stable across runners and a >20% drop means the tracker got slower
// relative to the path it shadows.
//
// Flags:
//   --quick               short run (CI); default sizes a longer run
//   --kbytes=<n>          buffer size in kilobytes per rep
//   --seed=<n>            source seed (default 1)
//   --reps=<n>            best-of reps after one warmup rep (default 3)
//   --out=<path>          JSON output path (default BENCH_streaming.json)
//   --trajectory=<path>   JSON-lines trajectory file to append to
//                         (default bench/trajectory/BENCH_streaming_trajectory.jsonl)
//   --baseline=<path>     compare headroom against a baseline JSON;
//                         exit 1 on >--max-regress-pct regression
//   --max-regress-pct=<p> allowed headroom regression in percent (default 20)
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/dhtrng.h"
#include "stats/streaming.h"

namespace {

double baseline_value(const std::string& json, const char* key) {
  const std::string tag = std::string("\"") + key + "\":";
  const std::size_t at = json.find(tag);
  if (at == std::string::npos) return -1.0;
  return std::atof(json.c_str() + at + tag.size());
}

}  // namespace

int main(int argc, char** argv) {
  using dhtrng::bench::flag;
  using dhtrng::bench::flag_set;
  using dhtrng::bench::flag_str;
  using dhtrng::stats::streaming::SourceTracker;
  using dhtrng::stats::streaming::TrackerConfig;

  const bool quick = flag_set(argc, argv, "quick");
  const std::size_t nbytes = static_cast<std::size_t>(
      flag(argc, argv, "kbytes", quick ? 64 : 512)) * 1024;
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flag(argc, argv, "seed", 1));
  const int reps = static_cast<int>(flag(argc, argv, "reps", 3));
  const std::string out_path =
      flag_str(argc, argv, "out", "BENCH_streaming.json");
  const std::string traj_path =
      flag_str(argc, argv, "trajectory",
               dhtrng::bench::trajectory_path("streaming"));
  const std::string baseline_path = flag_str(argc, argv, "baseline", "");
  const double max_regress_pct =
      static_cast<double>(flag(argc, argv, "max-regress-pct", 20));

  dhtrng::bench::header(
      "streaming stats microbench: certification tracker vs bulk generation",
      "online-certification overhead (repo infrastructure; not a paper table)");
  std::printf("config: %zu KiB per rep, seed %llu, best of %d%s\n\n",
              nbytes / 1024, static_cast<unsigned long long>(seed), reps,
              quick ? " (--quick)" : "");

  const TrackerConfig cfg;  // pool defaults: 128-bit blocks, 1024-bit windows

  // Generation lane: drain a DhTrng source bit-by-bit and pack MSB-first
  // — the same bytes EntropyPool's producer publishes, at the same
  // per-bit generation cost (next_bit dominates either packing).  The
  // source is stateful across reps (each rep generates fresh bits), which
  // is also what the producer loop does.
  dhtrng::core::DhTrngConfig core_cfg;
  core_cfg.seed = seed;
  dhtrng::core::DhTrng source(core_cfg);
  std::vector<std::uint8_t> buf(nbytes);
  const double gen_s = dhtrng::bench::best_of_seconds(reps, [&] {
    for (std::size_t i = 0; i < nbytes; ++i) {
      std::uint8_t v = 0;
      for (int b = 0; b < 8; ++b) {
        v = static_cast<std::uint8_t>((v << 1) | (source.next_bit() ? 1u : 0u));
      }
      buf[i] = v;
    }
  });

  // Tracker lane: a fresh tracker per rep fed the final buffer, so every
  // rep performs identical work.  The snapshot ones-count is folded into a
  // volatile sink so the feed cannot be dead-code-eliminated.
  volatile std::uint64_t sink = 0;
  const double track_s = dhtrng::bench::best_of_seconds(reps, [&] {
    SourceTracker tracker(cfg);
    tracker.feed_bytes(buf.data(), buf.size());
    sink = sink + tracker.snapshot().ones;
  });

  // Snapshot lane: the CERT-verb cost for a 4-producer pool — merge four
  // window-aligned per-producer trackers and snapshot the merged view.
  // Reported for visibility; not gated (it is per-request, not per-byte).
  const std::size_t quarter = (nbytes / 4) & ~std::size_t{cfg.window_bits / 8 - 1};
  std::vector<SourceTracker> producers(4, SourceTracker(cfg));
  for (std::size_t p = 0; p < producers.size(); ++p) {
    producers[p].feed_bytes(buf.data() + p * quarter, quarter);
  }
  const double snap_s = dhtrng::bench::best_of_seconds(reps, [&] {
    SourceTracker merged(cfg);
    for (const SourceTracker& p : producers) merged.merge(p);
    sink = sink + merged.snapshot().ones;
  });

  const double nbits = static_cast<double>(nbytes) * 8.0;
  const double gen_ns_byte = gen_s * 1e9 / static_cast<double>(nbytes);
  const double track_ns_byte = track_s * 1e9 / static_cast<double>(nbytes);
  const double gen_mbps = nbits / gen_s / 1e6;
  const double track_mbps = nbits / track_s / 1e6;
  const double overhead_pct = 100.0 * track_s / gen_s;
  const double headroom = gen_s / track_s;

  std::printf("%-30s %10.2f ns/byte  %9.1f Mbit/s\n",
              "generate (producer path)", gen_ns_byte, gen_mbps);
  std::printf("%-30s %10.2f ns/byte  %9.1f Mbit/s\n", "track (feed_bytes)",
              track_ns_byte, track_mbps);
  std::printf("%-30s %10.2f us per request (4 producers, %zu KiB each)\n",
              "snapshot (merge + CERT)", snap_s * 1e6, quarter / 1024);
  std::printf("%-30s %9.2f%%  (budget: <10%% of generation)\n",
              "tracker overhead", overhead_pct);
  std::printf("%-30s %9.2fx\n\n", "headroom (gen/track)", headroom);

  std::ostringstream json;
  json << "{\n  \"bench\": \"streaming_stats\",\n";
  json << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n";
  json << "  \"kbytes\": " << nbytes / 1024 << ",\n  \"seed\": " << seed
       << ",\n";
  json << "  \"block_len\": " << cfg.block_len << ",\n";
  json << "  \"window_bits\": " << cfg.window_bits << ",\n";
  json << "  \"generate_ns_per_byte\": " << gen_ns_byte << ",\n";
  json << "  \"track_ns_per_byte\": " << track_ns_byte << ",\n";
  json << "  \"track_mbit_per_s\": " << track_mbps << ",\n";
  json << "  \"snapshot_us\": " << snap_s * 1e6 << ",\n";
  json << "  \"overhead_pct\": " << overhead_pct << ",\n";
  json << "  \"speedup\": " << headroom << "\n}\n";
  {
    std::ofstream out(out_path);
    out << json.str();
  }
  dhtrng::bench::append_trajectory(
      traj_path, "streaming_stats", track_ns_byte, track_mbps,
      "\"overhead_pct\": " + std::to_string(overhead_pct) +
          ", \"headroom\": " + std::to_string(headroom));
  std::printf("wrote %s and appended %s\n", out_path.c_str(),
              traj_path.c_str());

  if (overhead_pct >= 10.0) {
    std::printf(
        "FAIL: tracker overhead %.2f%% exceeds the 10%% budget — the "
        "certification path is no longer cheap enough to ride every block\n",
        overhead_pct);
    return 1;
  }

  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::printf("FAIL: cannot read baseline %s\n", baseline_path.c_str());
      return 1;
    }
    std::stringstream buf_in;
    buf_in << in.rdbuf();
    const double want = baseline_value(buf_in.str(), "speedup");
    if (want <= 0.0) {
      std::printf("FAIL: baseline has no \"speedup\" entry\n");
      return 1;
    }
    const double floor = want * (1.0 - max_regress_pct / 100.0);
    const bool pass = headroom >= floor;
    std::printf("baseline headroom %.1fx vs %.1fx (floor %.1fx): %s\n",
                headroom, want, floor, pass ? "ok" : "REGRESSION");
    if (!pass) return 1;
  }
  return 0;
}
