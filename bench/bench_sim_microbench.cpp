// Gate-level event-engine microbenchmark: the production simulator
// (sim::Simulator) vs the reference binary-heap engine
// (sim::ReferenceSimulator from the dhtrng_sim_reference test library,
// tests/support/sim_reference.h) on the DH-TRNG netlist, its companions and
// the entropy-source zoo, with machine-readable JSON output (BENCH_sim.json)
// so CI can track the perf trajectory.
//
// For every netlist in core::golden_gate_netlists and
// core::zoo_gate_netlists the bench runs the same (circuit, config, seed)
// on both engines, asserts the waveforms are bit-identical (event counts,
// per-net toggle counts, final net values), and reports events/second per
// engine plus the speedup.  The zoo rows (neo, klein,
// hbn) have no baseline entry, so the gate below reports them without
// bounding them; hbn keeps the most events pending of any shipped netlist
// and so is the sorted run's worst case.
//
// The CI regression gate compares *speedups*, not absolute rates: the
// ratio production/reference on the same machine in the same run is stable
// across hardware, so a checked-in baseline (bench/BENCH_sim_baseline.json)
// stays meaningful on any runner.
//
// Flags:
//   --quick              short run (CI); default is a longer horizon
//   --ns=<sim ns>        override the simulated horizon per engine
//   --seed=<n>           simulation seed (default 1)
//   --reps=<n>           repetitions per engine, best-of after one untimed
//                        warmup rep (default 3); wall time is min-of-reps
//                        so scheduling noise on busy runners doesn't
//                        fabricate regressions
//   --out=<path>         JSON output path (default BENCH_sim.json)
//   --trajectory=<path>  JSON-lines perf-trajectory file to append to
//                        (default bench/trajectory/BENCH_sim_trajectory.jsonl)
//   --baseline=<path>    compare speedups against a baseline JSON;
//                        exit 1 on >--max-regress-pct regression
//   --max-regress-pct=<p> allowed speedup regression in percent (default 20)
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/netlist.h"
#include "core/zoo/zoo.h"
#include "sim/simulator.h"
#include "support/sim_reference.h"

namespace {

using dhtrng::sim::NetId;
using dhtrng::sim::ReferenceSimulator;
using dhtrng::sim::SimConfig;
using dhtrng::sim::Simulator;

struct EngineRun {
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t toggles = 0;
  std::vector<std::uint64_t> per_net_toggles;
  std::vector<std::uint8_t> final_values;
};

template <typename Engine>
EngineRun run_engine_once(const dhtrng::sim::Circuit& circuit,
                          std::uint64_t seed, double horizon_ps,
                          dhtrng::noise::NoiseMode noise_mode) {
  SimConfig cfg;
  cfg.seed = seed;
  cfg.noise_mode = noise_mode;
  Engine sim(circuit, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  sim.run_until(horizon_ps);
  const auto t1 = std::chrono::steady_clock::now();

  EngineRun r;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.events = sim.events_processed();
  r.toggles = sim.total_toggles();
  r.per_net_toggles.reserve(circuit.net_count());
  r.final_values.reserve(circuit.net_count());
  for (NetId n = 0; n < static_cast<NetId>(circuit.net_count()); ++n) {
    r.per_net_toggles.push_back(sim.toggle_count(n));
    r.final_values.push_back(sim.net_value(n) ? 1 : 0);
  }
  return r;
}

/// Best-of-`reps` timing after one explicit warmup rep (the runs are
/// deterministic, so every rep reproduces the same waveform; only the wall
/// clock varies — min is the standard estimator for "time with the least
/// interference", and the warmup keeps cold caches and lazy CPU-dispatch
/// init out of every rep, not just the first).
template <typename Engine>
EngineRun run_engine(const dhtrng::sim::Circuit& circuit, std::uint64_t seed,
                     double horizon_ps, int reps,
                     dhtrng::noise::NoiseMode noise_mode =
                         dhtrng::noise::NoiseMode::Exact) {
  run_engine_once<Engine>(circuit, seed, horizon_ps, noise_mode);
  EngineRun best =
      run_engine_once<Engine>(circuit, seed, horizon_ps, noise_mode);
  for (int i = 1; i < reps; ++i) {
    EngineRun r =
        run_engine_once<Engine>(circuit, seed, horizon_ps, noise_mode);
    if (r.wall_s < best.wall_s) best = std::move(r);
  }
  return best;
}

struct CaseResult {
  std::string name;
  std::uint64_t events = 0;
  double sorted_eps = 0.0;
  double reference_eps = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  dhtrng::bench::accept_flags(argc, argv,
                              {"ns", "reps", "seed", "out", "trajectory",
                               "baseline", "max-regress-pct"},
                              {"quick"});
  using dhtrng::bench::flag;
  using dhtrng::bench::flag_set;
  using dhtrng::bench::flag_str;

  const bool quick = flag_set(argc, argv, "quick");
  const double horizon_ps =
      static_cast<double>(flag(argc, argv, "ns", quick ? 2000 : 20000)) * 1e3;
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flag(argc, argv, "seed", 1));
  const int reps = static_cast<int>(flag(argc, argv, "reps", 3));
  const std::string out_path =
      flag_str(argc, argv, "out", "BENCH_sim.json");

  dhtrng::bench::header(
      "sim microbench: production event engine vs reference heap",
      "event-engine speedup (repo infrastructure; not a paper table)");
  std::printf("config: horizon %.0f ns per engine, seed %llu, best of %d%s\n\n",
              horizon_ps / 1e3, static_cast<unsigned long long>(seed), reps,
              quick ? " (--quick)" : "");
  std::printf("%-18s %12s %14s %14s %9s %10s\n", "netlist", "events",
              "sorted ev/s", "reference ev/s", "speedup", "identical");

  std::vector<CaseResult> results;
  bool all_identical = true;
  const auto report = [&](const std::string& name, const EngineRun& prod,
                           const EngineRun& ref, double reference_eps) {
    CaseResult r;
    r.name = name;
    r.events = prod.events;
    r.identical = prod.events == ref.events && prod.toggles == ref.toggles &&
                  prod.per_net_toggles == ref.per_net_toggles &&
                  prod.final_values == ref.final_values;
    r.sorted_eps = static_cast<double>(prod.events) / prod.wall_s;
    r.reference_eps = reference_eps;
    r.speedup = r.sorted_eps / r.reference_eps;
    all_identical = all_identical && r.identical;
    std::printf("%-18s %12llu %14.3g %14.3g %8.2fx %10s\n", r.name.c_str(),
                static_cast<unsigned long long>(r.events), r.sorted_eps,
                r.reference_eps, r.speedup, r.identical ? "yes" : "NO");
    results.push_back(r);
  };

  const auto device = dhtrng::fpga::DeviceModel::artix7();
  auto nets = dhtrng::core::golden_gate_netlists(device);
  for (auto& net : dhtrng::core::zoo_gate_netlists(device)) {
    nets.push_back(std::move(net));
  }
  for (const auto& net : nets) {
    const EngineRun prod =
        run_engine<Simulator>(net.circuit, seed, horizon_ps, reps);
    const EngineRun ref =
        run_engine<ReferenceSimulator>(net.circuit, seed, horizon_ps, reps);
    const double reference_eps =
        static_cast<double>(ref.events) / ref.wall_s;
    report(net.name, prod, ref, reference_eps);

    // Fast-noise lane for the paper's core netlist: the production engine
    // with NoiseMode::Fast, reported as a speedup against the SAME
    // exact-noise reference run as the "dhtrng" row above (so the row
    // answers "how much faster is the optimised engine end to end").
    // The identity check compares fast-production against fast-reference:
    // both engines draw the same fast noise blocks (noise::kNoiseBlock), so
    // they must still agree bit-for-bit *within* the mode — golden digests
    // of the exact mode do not apply here.
    if (net.name == "dhtrng") {
      const EngineRun fprod = run_engine<Simulator>(
          net.circuit, seed, horizon_ps, reps, dhtrng::noise::NoiseMode::Fast);
      const EngineRun fref =
          run_engine<ReferenceSimulator>(net.circuit, seed, horizon_ps, 1,
                                         dhtrng::noise::NoiseMode::Fast);
      report("dhtrng_fastnoise", fprod, fref, reference_eps);
    }
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"sim_microbench\",\n";
  json << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n";
  json << "  \"horizon_ns\": " << horizon_ps / 1e3 << ",\n";
  json << "  \"seed\": " << seed << ",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    json << "    {\"name\": \"" << r.name << "\", \"events\": " << r.events
         << ", \"events_per_sec_sorted\": " << r.sorted_eps
         << ", \"events_per_sec_reference\": " << r.reference_eps
         << ", \"speedup\": " << r.speedup << ", \"identical\": "
         << (r.identical ? "true" : "false") << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  {
    std::ofstream out(out_path);
    out << json.str();
  }
  // Perf-trajectory record per case (JSON lines; Mbit/s is not meaningful
  // for an event-engine bench, so the field is 0 and ns/event carries the
  // signal — the speedup rides along in the extra field).
  const std::string traj_path =
      flag_str(argc, argv, "trajectory",
               dhtrng::bench::trajectory_path("sim"));
  for (const CaseResult& r : results) {
    dhtrng::bench::append_trajectory(
        traj_path, "sim_" + r.name, 1e9 / r.sorted_eps, 0.0,
        "\"speedup\": " + std::to_string(r.speedup));
  }
  std::printf("\nwrote %s and appended %s\n", out_path.c_str(),
              traj_path.c_str());

  if (!all_identical) {
    std::printf("FAIL: engines disagree — waveforms not bit-identical\n");
    return 1;
  }

  std::vector<dhtrng::bench::GatedRatio> ratios;
  for (const CaseResult& r : results) {
    ratios.push_back({r.name, r.speedup, "speedup", r.name});
  }
  return dhtrng::bench::baseline_gate(argc, argv, ratios,
                                      dhtrng::bench::IfMissing::Skip);
}
