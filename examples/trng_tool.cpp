// Command-line TRNG utility — generate random data and/or evaluate it.
//
//   trng_tool generate [--device=artix7|virtex6] [--bits=N] [--seed=S]
//                      [--backend=fast|gate|soa|neo|klein|hbn]
//                      [--format=hex|bin|bits]
//                      [--post=none|vn|peres|xor4|sha256]
//                      [--noise-mode=fast|exact]
//   trng_tool evaluate [--device=...] [--bits=N] [--seed=S] [--threads=T]
//                      [--noise-mode=...]
//   trng_tool report   [--device=...] [--bits=N] [--seed=S] [--noise-mode=...]
//   trng_tool compare  [--seed=S] [--bits=N] [--device=artix7|virtex6]
//                      [--archs=dhtrng,neo,klein,hbn]
//   trng_tool serve    [--port=P] [--unix=PATH] [--producers=N]
//                      [--workers=N] [--seed=S] [--device=] [--backend=]
//                      [--rate-mbps=R] [--max-request=N] [--noise-mode=...]
//   trng_tool fetch    [--host=H] [--port=P] [--unix=PATH] [--bytes=N]
//                      [--quality=raw|conditioned|drbg] [--format=hex|bin]
//   trng_tool subscribe [--host=H] [--port=P] [--unix=PATH] [--bytes=N]
//                      [--interval-ms=M] [--count=K] [--quality=...]
//                      [--format=hex|bin] [--noise-mode=...]
//   trng_tool stats    [--host=H] [--port=P] [--unix=PATH]
//   trng_tool cert     [--host=H] [--port=P] [--unix=PATH]
//
// `--noise-mode` selects the noise fidelity uniformly across the
// generator-side commands: `exact` (default; golden-digest-pinned streams)
// or `fast` (fused SIMD Box-Muller kernels, statistically equivalent,
// deterministic per (seed, mode) but a different bit stream).  For the
// `soa` backend the default is `fast` — its bulk engine.  `subscribe`
// takes the flag too as a client-side guard: it checks the server's
// advertised `noise_mode` (STATS) and refuses to stream when they differ.
//
// `generate` writes to stdout; `evaluate` runs the quick statistical
// screen (bias, ACF, core SP 800-90B estimators, IID permutation test);
// `report` renders the full characterization report (all suites);
// `serve` runs the entropy-as-a-service daemon until SIGINT/SIGTERM;
// `fetch`, `subscribe`, `stats` and `cert` are protocol clients against a
// running daemon (`subscribe` streams pushed chunks until --count pushes
// arrive or SIGINT, then unsubscribes cleanly; `cert` dumps the live
// streaming-certification snapshots — per-producer and merged
// SP 800-22/90B accumulators).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/dhtrng.h"
#include "core/dhtrng_array.h"
#include "core/dhtrng_soa.h"
#include "core/postprocess.h"
#include "core/zoo/compare.h"
#include "core/zoo/zoo.h"
#include "service/client.h"
#include "service/entropy_server.h"
#include "stats/correlation.h"
#include "stats/report.h"
#include "stats/sp800_90b.h"
#include "trng_noise_mode.h"

namespace {

using namespace dhtrng;

std::string flag(int argc, char** argv, const char* name,
                 const std::string& fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

/// The complete --backend vocabulary, for error messages: the DH-TRNG
/// backends plus every registered zoo architecture.
std::string valid_backends() {
  std::string names = "fast|gate|soa";
  for (const std::string& name : core::zoo_source_names()) {
    names += "|" + name;
  }
  return names;
}

[[noreturn]] void reject_backend(const std::string& backend) {
  throw std::runtime_error("unknown --backend=" + backend + " (expected " +
                           valid_backends() + ")");
}

// --backend selects the generator: `fast`/`gate` are the DH-TRNG's
// behavioral and event-simulated backends, `soa` the bitsliced
// 64-instance bulk backend (core::DhTrngSoA — ~an order of magnitude more
// bits per second, statistically equivalent but not bit-identical to a
// single DhTrng instance; with --noise-mode=exact, 64 scalar cores of
// core::DhTrngArray in the same lane order), and `neo`/`klein`/`hbn` the
// zoo architectures (core/zoo/zoo.h, behavioral models).  Anything else
// is rejected with the full vocabulary — no silent fallback to the
// default.
struct TrngBackend {
  /// Builds the generator for `seed` (`serve` calls it once per producer
  /// build, with the pool's derived seeds).
  std::function<std::unique_ptr<core::TrngSource>(std::uint64_t seed)> make;
  /// The noise fidelity the generator draws (tool::drawn_noise_mode).
  noise::NoiseMode noise_mode = noise::NoiseMode::Exact;
};

TrngBackend parse_backend(int argc, char** argv) {
  const std::string backend = flag(argc, argv, "backend", "fast");
  core::DhTrngConfig core_cfg;
  if (flag(argc, argv, "device", "artix7") == "virtex6") {
    core_cfg.device = fpga::DeviceModel::virtex6();
  }
  const noise::NoiseMode mode =
      tool::drawn_noise_mode(backend, flag(argc, argv, "noise-mode", ""));
  core_cfg.noise_mode = mode;
  if (backend == "soa") {
    return {[core_cfg](std::uint64_t seed)
                -> std::unique_ptr<core::TrngSource> {
              core::DhTrngConfig c = core_cfg;
              c.seed = seed;
              if (c.noise_mode == noise::NoiseMode::Exact) {
                c.backend = core::Backend::Fast;
                return std::make_unique<core::DhTrngArray>(
                    core::DhTrngArrayConfig{c, core::kSoaLanes});
              }
              core::DhTrngSoAConfig soa;
              soa.core = c;
              return std::make_unique<core::DhTrngSoA>(soa);
            },
            mode};
  }
  if (backend == "fast" || backend == "gate") {
    if (backend == "gate") core_cfg.backend = core::Backend::GateLevel;
    return {[core_cfg](std::uint64_t seed)
                -> std::unique_ptr<core::TrngSource> {
              core::DhTrngConfig c = core_cfg;
              c.seed = seed;
              return std::make_unique<core::DhTrng>(c);
            },
            mode};
  }
  const auto& zoo = core::zoo_source_names();
  if (std::find(zoo.begin(), zoo.end(), backend) == zoo.end()) {
    reject_backend(backend);
  }
  core::ZooOptions opt;
  opt.device = core_cfg.device;
  return {[backend, opt](std::uint64_t seed) {
            core::ZooOptions o = opt;
            o.seed = seed;
            return core::make_zoo_source(backend, o);
          },
          mode};
}

std::unique_ptr<core::TrngSource> make_trng(int argc, char** argv) {
  return parse_backend(argc, argv).make(
      std::stoull(flag(argc, argv, "seed", "1")));
}

int cmd_generate(int argc, char** argv) {
  auto trng = make_trng(argc, argv);
  const auto nbits = std::stoull(flag(argc, argv, "bits", "8192"));
  auto bits = trng->generate(nbits);

  const std::string post = flag(argc, argv, "post", "none");
  if (post == "vn") {
    bits = core::peres_extract(bits, 1);
  } else if (post == "peres") {
    bits = core::peres_extract(bits);
  } else if (post == "xor4") {
    bits = core::xor_compress(bits, 4);
  } else if (post == "sha256") {
    bits = core::sha256_condition(bits);
  } else if (post != "none") {
    std::fprintf(stderr, "unknown --post=%s\n", post.c_str());
    return 2;
  }

  const std::string format = flag(argc, argv, "format", "hex");
  if (format == "bits") {
    std::fputs(bits.to_string().c_str(), stdout);
    std::fputc('\n', stdout);
  } else if (format == "bin") {
    const auto bytes = bits.to_bytes();
    std::fwrite(bytes.data(), 1, bytes.size(), stdout);
  } else {
    const auto bytes = bits.to_bytes();
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      std::printf("%02x", bytes[i]);
      if (i % 32 == 31) std::fputc('\n', stdout);
    }
    std::fputc('\n', stdout);
  }
  return 0;
}

int cmd_evaluate(int argc, char** argv) {
  auto trng = make_trng(argc, argv);
  const auto nbits = std::stoull(flag(argc, argv, "bits", "200000"));
  const auto bits = trng->generate(nbits);

  std::printf("generator : %s on %s at %.0f MHz\n", trng->name().c_str(),
              flag(argc, argv, "device", "artix7").c_str(),
              trng->clock_mhz());
  std::printf("sample    : %zu bits\n\n", bits.size());
  std::printf("bias      : %.4f%%\n", stats::bias_percent(bits));
  double max_acf = 0.0;
  for (double a : stats::autocorrelation(bits, 100)) {
    max_acf = std::max(max_acf, std::abs(a));
  }
  std::printf("max |ACF| : %.5f over lags 1..100\n\n", max_acf);
  std::printf("SP 800-90B estimators:\n");
  for (const auto& row : stats::sp800_90b::run_all(bits)) {
    std::printf("  %-12s h-min = %.4f\n", row.name.c_str(), row.h_min);
  }
  // --threads=0 -> hardware concurrency; the battery's rank counts are
  // thread-count invariant, so this only changes wall-clock time.
  const auto threads = std::stoull(flag(argc, argv, "threads", "1"));
  const auto iid = stats::sp800_90b::permutation_iid_test(
      bits.slice(0, std::min<std::size_t>(bits.size(), 20000)), 120, 3,
      threads);
  std::printf("\nIID permutation test (%zu shuffles): %s\n", iid.permutations,
              iid.iid_assumption_holds ? "assumption holds" : "REJECTED");
  return 0;
}

int cmd_report(int argc, char** argv) {
  auto trng = make_trng(argc, argv);
  stats::ReportOptions opts;
  opts.sample_bits = std::stoull(flag(argc, argv, "bits", "300000"));
  const auto report = stats::characterize(*trng, opts);
  std::fputs(report.text.c_str(), stdout);
  return report.all_clear ? 0 : 1;
}

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_release); }

int cmd_serve(int argc, char** argv) {
  service::EntropyServerConfig cfg;
  cfg.tcp_port = static_cast<std::uint16_t>(
      std::stoul(flag(argc, argv, "port", "7230")));
  cfg.unix_path = flag(argc, argv, "unix", "");
  cfg.pool.producers = std::stoull(flag(argc, argv, "producers", "4"));
  cfg.shards = std::stoull(flag(argc, argv, "workers", "4"));
  cfg.pool.seed = std::stoull(flag(argc, argv, "seed", "1"));
  cfg.max_request_bytes =
      std::stoull(flag(argc, argv, "max-request", "1048576"));
  const double rate_mbps = std::stod(flag(argc, argv, "rate-mbps", "0"));
  cfg.global_rate_bytes_per_s =
      static_cast<std::uint64_t>(rate_mbps * 1e6 / 8.0);

  const TrngBackend backend = parse_backend(argc, argv);
  cfg.noise_mode_label = tool::noise_mode_name(backend.noise_mode);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  auto server = std::make_unique<service::EntropyServer>(
      cfg, [make = backend.make](std::size_t, std::uint64_t seed) {
        return make(seed);
      });
  std::printf("entropy service listening on 127.0.0.1:%u%s%s\n",
              server->tcp_port(),
              cfg.unix_path.empty() ? "" : " and ",
              cfg.unix_path.c_str());
  std::fflush(stdout);
  while (!g_stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("shutting down (state %s)\n",
              service::service_state_name(server->state()));
  server->stop();
  return 0;
}

service::EntropyClient connect_client(int argc, char** argv) {
  const std::string unix_path = flag(argc, argv, "unix", "");
  if (!unix_path.empty()) {
    return service::EntropyClient::connect_unix(unix_path);
  }
  return service::EntropyClient::connect_tcp(
      flag(argc, argv, "host", "127.0.0.1"),
      static_cast<std::uint16_t>(
          std::stoul(flag(argc, argv, "port", "7230"))));
}

int cmd_fetch(int argc, char** argv) {
  auto client = connect_client(argc, argv);
  const auto n = static_cast<std::uint32_t>(
      std::stoul(flag(argc, argv, "bytes", "32")));
  const std::string quality_str = flag(argc, argv, "quality", "conditioned");
  const auto quality = service::quality_from_name(quality_str);
  if (!quality) {
    std::fprintf(stderr, "unknown --quality=%s\n", quality_str.c_str());
    return 2;
  }
  const auto result = client.fetch(n, *quality);
  if (!result.ok()) {
    std::fprintf(stderr, "fetch refused: %s (%s)\n",
                 service::status_name(result.status),
                 result.detail.c_str());
    return 1;
  }
  if (result.degraded) {
    std::fprintf(stderr,
                 "warning: service is DEGRADED (DRBG fallback output)\n");
  }
  if (flag(argc, argv, "format", "hex") == "bin") {
    std::fwrite(result.bytes.data(), 1, result.bytes.size(), stdout);
  } else {
    for (std::size_t i = 0; i < result.bytes.size(); ++i) {
      std::printf("%02x", result.bytes[i]);
      if (i % 32 == 31) std::fputc('\n', stdout);
    }
    if (result.bytes.size() % 32 != 0) std::fputc('\n', stdout);
  }
  return 0;
}

void write_bytes(const std::vector<std::uint8_t>& bytes, bool binary) {
  if (binary) {
    std::fwrite(bytes.data(), 1, bytes.size(), stdout);
    return;
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::printf("%02x", bytes[i]);
    if (i % 32 == 31) std::fputc('\n', stdout);
  }
  if (bytes.size() % 32 != 0) std::fputc('\n', stdout);
}

int cmd_subscribe(int argc, char** argv) {
  auto client = connect_client(argc, argv);
  const auto chunk = static_cast<std::uint32_t>(
      std::stoul(flag(argc, argv, "bytes", "32")));
  const auto interval_ms = static_cast<std::uint32_t>(
      std::stoul(flag(argc, argv, "interval-ms", "1000")));
  const auto count = std::stoull(flag(argc, argv, "count", "0"));  // 0 = ∞
  const std::string quality_str = flag(argc, argv, "quality", "conditioned");
  const auto quality = service::quality_from_name(quality_str);
  if (!quality) {
    std::fprintf(stderr, "unknown --quality=%s\n", quality_str.c_str());
    return 2;
  }
  const bool binary = flag(argc, argv, "format", "hex") == "bin";

  // Client-side noise-mode guard: the stream's fidelity is fixed by the
  // server, so when the caller asked for a specific mode, check the
  // server's advertised `noise_mode` (STATS) before subscribing and
  // refuse a mismatched stream instead of silently delivering the other
  // grade.
  if (flag(argc, argv, "noise-mode", "") != "") {
    const std::string want_name = tool::noise_mode_name(
        tool::parse_noise_mode(flag(argc, argv, "noise-mode", "")));
    const std::string stats = client.stats();
    std::string server_mode = "unknown";
    const std::string tag = "noise_mode ";
    const std::size_t at = stats.find(tag);
    if (at != std::string::npos) {
      const std::size_t end = stats.find('\n', at);
      server_mode = stats.substr(at + tag.size(), end - at - tag.size());
    }
    if (server_mode != want_name) {
      std::fprintf(stderr,
                   "noise-mode mismatch: requested %s, server serves %s\n",
                   want_name.c_str(), server_mode.c_str());
      return 1;
    }
  }

  const auto ack = client.subscribe(chunk, interval_ms, *quality);
  if (!ack.ok()) {
    std::fprintf(stderr, "subscribe refused: %s (%s)\n",
                 service::status_name(ack.status), ack.detail.c_str());
    return 1;
  }
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::uint64_t received = 0;
  while (!g_stop.load(std::memory_order_acquire) &&
         (count == 0 || received < count)) {
    const auto push = client.try_next_push(200);
    if (!push) continue;  // poll timeout; check the stop flag again
    if (!push->ok()) {
      std::fprintf(stderr, "stream ended: %s (%s)\n",
                   service::status_name(push->status), push->detail.c_str());
      return 1;
    }
    if (push->degraded) {
      std::fprintf(stderr,
                   "warning: service is DEGRADED (DRBG fallback output)\n");
    }
    write_bytes(push->bytes, binary);
    std::fflush(stdout);
    ++received;
  }
  // Clean shutdown: drain in-flight pushes so none are silently dropped.
  for (const auto& push : client.unsubscribe()) {
    if (push.ok()) write_bytes(push.bytes, binary);
  }
  return 0;
}

// Table-6-style cross-architecture report (core/zoo/compare.h): every
// architecture (or --archs=a,b,c) characterized per device model on the
// same pinned seed.  The output is deterministic — CI pins it as an
// artifact, and identical flags reproduce it byte for byte.
int cmd_compare(int argc, char** argv) {
  core::CompareOptions opt;
  opt.seed = std::stoull(flag(argc, argv, "seed", "42"));
  opt.bits = std::stoull(flag(argc, argv, "bits", "131072"));
  const std::string device = flag(argc, argv, "device", "");
  if (device == "artix7") {
    opt.devices = {fpga::DeviceModel::artix7()};
  } else if (device == "virtex6") {
    opt.devices = {fpga::DeviceModel::virtex6()};
  } else if (!device.empty()) {
    throw std::runtime_error("unknown --device=" + device +
                             " (expected artix7|virtex6)");
  }
  std::string archs = flag(argc, argv, "archs", "");
  while (!archs.empty()) {
    const std::size_t comma = archs.find(',');
    opt.archs.push_back(archs.substr(0, comma));
    archs = comma == std::string::npos ? "" : archs.substr(comma + 1);
  }
  const auto report = core::compare_architectures(opt);
  std::fputs(report.text().c_str(), stdout);
  return 0;
}

int cmd_stats(int argc, char** argv) {
  auto client = connect_client(argc, argv);
  std::fputs(client.stats().c_str(), stdout);
  return 0;
}

int cmd_cert(int argc, char** argv) {
  auto client = connect_client(argc, argv);
  std::fputs(client.cert().c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s generate|evaluate|report|compare|serve|fetch|"
                 "subscribe|stats|cert "
                 "[--device=] [--bits=] [--seed=] [--backend=] [--format=] "
                 "[--post=] [--port=] [--unix=] [--bytes=] [--quality=] "
                 "[--interval-ms=] [--count=] [--noise-mode=fast|exact]\n",
                 argv[0]);
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "generate") return cmd_generate(argc, argv);
    if (cmd == "evaluate") return cmd_evaluate(argc, argv);
    if (cmd == "report") return cmd_report(argc, argv);
    if (cmd == "compare") return cmd_compare(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
    if (cmd == "fetch") return cmd_fetch(argc, argv);
    if (cmd == "subscribe") return cmd_subscribe(argc, argv);
    if (cmd == "stats") return cmd_stats(argc, argv);
    if (cmd == "cert") return cmd_cert(argc, argv);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "%s: %s\n", cmd.c_str(), ex.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  return 2;
}
