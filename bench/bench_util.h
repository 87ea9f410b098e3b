// Shared helpers for the reproduction benches: flag parsing, table
// printing, and the device list the paper evaluates on.
//
// Every bench prints the paper's reported values next to the values
// measured from the simulation models, so bench_output.txt doubles as the
// paper-vs-measured record summarized in EXPERIMENTS.md.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fpga/device.h"

namespace dhtrng::bench {

/// Exit with status 2 before the bench does any work unless every
/// argument is "--name=value" for a name in `values` or "--name" for a
/// name in `switches`.  The readers below ignore what they are not asked
/// for, so without this a `--help` would run the full bench and a
/// misspelt `--baseline` would skip the ratio gate.
using FlagNames = std::initializer_list<std::string_view>;
inline void accept_flags(int argc, char** argv, FlagNames values,
                         FlagNames switches = {}) {
  const auto listed = [](FlagNames names, std::string_view name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--")) {
      const std::string_view body = arg.substr(2);
      const std::size_t eq = body.find('=');
      if (eq == std::string_view::npos ? listed(switches, body)
                                       : listed(values, body.substr(0, eq))) {
        continue;
      }
    }
    std::fprintf(stderr, "%s: unknown argument '%s'; accepted:", argv[0],
                 argv[i]);
    for (const std::string_view v : values) {
      std::fprintf(stderr, " --%.*s=", static_cast<int>(v.size()), v.data());
    }
    for (const std::string_view v : switches) {
      std::fprintf(stderr, " --%.*s", static_cast<int>(v.size()), v.data());
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
}

/// Parse "--name=value" (integer) from argv, else return fallback.  A
/// value that is not one whole integer (`--bits=1e5`, `--bits=`) exits
/// with status 2 rather than run on the digits it starts with.
inline long long flag(int argc, char** argv, const char* name,
                      long long fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      const std::string_view text = argv[i] + prefix.size();
      long long value = 0;
      const auto [end, ec] =
          std::from_chars(text.data(), text.data() + text.size(), value);
      if (ec != std::errc() || end != text.data() + text.size()) {
        std::fprintf(stderr, "%s: %s is not an integer\n", argv[0], argv[i]);
        std::exit(2);
      }
      return value;
    }
  }
  return fallback;
}

/// Parse "--name=value" (string) from argv, else return fallback.
inline std::string flag_str(int argc, char** argv, const char* name,
                            const std::string& fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return fallback;
}

/// Parse a bare "--name" switch.
inline bool flag_set(int argc, char** argv, const char* name) {
  const std::string want = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (want == argv[i]) return true;
  }
  return false;
}

inline void header(const char* experiment, const char* paper_ref) {
  std::printf("=============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("=============================================================\n");
}

inline void note(const char* text) { std::printf("note: %s\n", text); }

inline std::vector<fpga::DeviceModel> paper_devices() {
  return {fpga::DeviceModel::virtex6(), fpga::DeviceModel::artix7()};
}

/// Best-of-N timing with an explicit warmup rep.  Runs `fn` once untimed
/// (populates caches, faults in pages, triggers lazy CPU-dispatch init),
/// then `reps` timed runs and returns the minimum wall seconds — min, not
/// mean, because the workloads are deterministic and only scheduling noise
/// varies, so the minimum is the estimator with the least interference.
template <class F>
double best_of_seconds(int reps, F&& fn) {
  fn();  // warmup — never timed
  double best = -1.0;
  for (int i = 0; i < (reps > 0 ? reps : 1); ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (best < 0.0 || s < best) best = s;
  }
  return best;
}

/// UTC date as "YYYY-MM-DD" for trajectory entries.
inline std::string iso_date_utc() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[16];
  std::strftime(buf, sizeof buf, "%Y-%m-%d", &tm);
  return buf;
}

/// Short git commit hash of the working tree, or "unknown" outside a
/// checkout (e.g. an installed bench binary run from a tarball).
inline std::string git_commit() {
  std::FILE* p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (!p) return "unknown";
  char buf[64] = {0};
  const bool got = std::fgets(buf, sizeof buf, p) != nullptr;
  ::pclose(p);
  if (!got) return "unknown";
  std::string s(buf);
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
  return s.empty() ? "unknown" : s;
}

/// Default trajectory path for a bench: all benches share one directory so
/// the JSONL history accumulates in a predictable place (CI uploads the
/// whole directory as an artifact).
inline std::string trajectory_path(const std::string& bench) {
  return "bench/trajectory/BENCH_" + bench + "_trajectory.jsonl";
}

/// Append one machine-readable perf-trajectory record to `path` (JSON
/// Lines: one object per line, so appending never needs to parse what is
/// already there).  Creates the parent directory if needed and warns on
/// stderr instead of silently dropping the row — an empty trajectory
/// should never be a silent failure again.
inline void append_trajectory(const std::string& path,
                              const std::string& bench,
                              double ns_per_event, double mbit_per_s,
                              const std::string& extra_json = "") {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
    // A failure here surfaces as the open failure below.
  }
  std::ofstream out(path, std::ios::app);
  if (!out) {
    std::fprintf(stderr, "warning: cannot append trajectory row to %s\n",
                 path.c_str());
    return;
  }
  out << "{\"date\": \"" << iso_date_utc() << "\", \"commit\": \""
      << git_commit() << "\", \"bench\": \"" << bench
      << "\", \"ns_per_event\": " << ns_per_event
      << ", \"mbit_per_s\": " << mbit_per_s;
  if (!extra_json.empty()) out << ", " << extra_json;
  out << "}\n";
  if (!out.good()) {
    std::fprintf(stderr, "warning: short trajectory write to %s\n",
                 path.c_str());
  }
}

/// One ratio a bench gates against its checked-in baseline: `measured`
/// against the number after `"key":` in the baseline JSON — for a
/// per-case row, the first one after `"name": "<case_name>"`.
struct GatedRatio {
  std::string label;
  double measured = 0.0;
  std::string key;
  std::string case_name;  ///< empty: a top-level key
};

/// A gated ratio the baseline has no entry for: `Skip` reports and moves
/// on (per-case tables gate only the rows they list), `Fail` fails the run.
enum class IfMissing { Skip, Fail };

/// The regression gate of every perf bench.  Runs only when
/// `--baseline=<path>` is given; each ratio passes at or above
/// `baseline * (1 - pct / 100)` with pct from `--max-regress-pct`
/// (default 20).  Prints one verdict line per ratio and returns the exit
/// code: 0 when every ratio passes, 1 otherwise.
inline int baseline_gate(int argc, char** argv,
                         const std::vector<GatedRatio>& ratios,
                         IfMissing if_missing) {
  const std::string path = flag_str(argc, argv, "baseline", "");
  if (path.empty()) return 0;
  const double pct =
      static_cast<double>(flag(argc, argv, "max-regress-pct", 20));
  std::ifstream in(path);
  if (!in) {
    std::printf("FAIL: cannot read baseline %s\n", path.c_str());
    return 1;
  }
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  bool ok = true;
  for (const GatedRatio& r : ratios) {
    std::size_t at = 0;
    if (!r.case_name.empty()) {
      at = json.find("\"name\": \"" + r.case_name + "\"");
    }
    const std::string tag = "\"" + r.key + "\":";
    if (at != std::string::npos) at = json.find(tag, at);
    const double want =
        at == std::string::npos ? -1.0
                                : std::atof(json.c_str() + at + tag.size());
    if (want <= 0.0) {
      if (if_missing == IfMissing::Fail) {
        std::printf("FAIL: baseline has no \"%s\" entry for %s\n",
                    r.key.c_str(), r.label.c_str());
        ok = false;
      } else {
        std::printf("baseline: no entry for %s (skipped)\n", r.label.c_str());
      }
      continue;
    }
    const double floor = want * (1.0 - pct / 100.0);
    const bool pass = r.measured >= floor;
    std::printf("baseline %-24s %.3f vs %.3f (floor %.3f at -%.0f%%): %s\n",
                r.label.c_str(), r.measured, want, floor, pct,
                pass ? "ok" : "REGRESSION");
    ok = ok && pass;
  }
  return ok ? 0 : 1;
}

}  // namespace dhtrng::bench
