// Entropy-service event-loop load generator: an in-process EntropyServer
// over fast PRNG-backed producers, driven closed-loop (one request in
// flight per connection) by non-blocking driver threads that reuse the
// server's own Poller abstraction.  Each phase holds N concurrent TCP
// connections (default 64, 512, 4096) and reports sustained throughput
// plus p50/p99/p999 request latency.
//
//   bench_service_load [--connections=64,512,4096] [--drivers=D]
//                      [--request-bytes=R] [--shards=S] [--window-ms=W]
//                      [--warmup-ms=U] [--quick]
//                      [--out=PATH] [--trajectory=PATH]
//                      [--baseline=PATH] [--max-regress-pct=P]
//
// The CI gate compares *scaling efficiency* — throughput at the largest
// connection count over throughput at the smallest — because the ratio is
// runner-independent (absolute rates are not): a healthy event loop keeps
// nearly flat throughput as connections fan out, a regressed one (per-
// connection allocations, O(conns) scans, thundering herds) decays.
// Checked-in baseline: bench/BENCH_service_baseline.json.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <sys/resource.h>
#include <sys/socket.h>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "core/trng.h"
#include "service/client.h"
#include "service/entropy_server.h"
#include "service/frame_assembler.h"
#include "service/poller.h"
#include "support/rng.h"

namespace {

using namespace dhtrng;

/// PRNG-backed TrngSource: buffers 64 bits per xoshiro draw so next_bit is
/// a shift, keeping the pool producers far faster than the socket path.
class FastSource final : public core::TrngSource {
 public:
  explicit FastSource(std::uint64_t seed) : rng_(seed) {}
  std::string name() const override { return "xoshiro-bench"; }
  bool next_bit() override {
    if (left_ == 0) {
      word_ = rng_();
      left_ = 64;
    }
    const bool bit = (word_ & 1u) != 0;
    word_ >>= 1;
    --left_;
    return bit;
  }
  void restart() override {}
  sim::ResourceCounts resources() const override { return {}; }
  double clock_mhz() const override { return 0.0; }
  fpga::ActivityEstimate activity() const override { return {}; }

 private:
  support::Xoshiro256 rng_;
  std::uint64_t word_ = 0;
  int left_ = 0;
};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Raise RLIMIT_NOFILE to hold `conns` client + `conns` server fds plus
/// headroom; returns the connection count the limit can actually carry.
std::size_t raise_fd_limit(std::size_t conns) {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return conns;
  const rlim_t want = static_cast<rlim_t>(2 * conns + 1024);
  if (rl.rlim_cur < want) {
    rlimit raised = rl;
    raised.rlim_cur = std::min(want, rl.rlim_max);
    if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) rl = raised;
  }
  if (rl.rlim_cur >= want) return conns;
  const std::size_t fit = (static_cast<std::size_t>(rl.rlim_cur) - 1024) / 2;
  std::printf("warning: RLIMIT_NOFILE=%llu caps connections at %zu\n",
              static_cast<unsigned long long>(rl.rlim_cur), fit);
  return fit;
}

/// One closed-loop connection: send the (constant) GET frame, read the
/// full response, record the round-trip, repeat.
struct LoadConn {
  service::Socket sock;
  service::FrameAssembler assembler;
  std::size_t sent = 0;         ///< bytes of the request frame written
  std::uint64_t t_start = 0;    ///< ns at request-send start
  bool awaiting = false;        ///< request fully sent, response pending
  bool want_write = false;

  explicit LoadConn(service::Socket s, std::size_t max_payload)
      : sock(std::move(s)), assembler(max_payload) {}
};

struct PhaseResult {
  std::size_t connections = 0;
  double throughput_mbit_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  std::uint64_t completed = 0;
};

struct DriverStats {
  std::vector<std::uint64_t> latencies_ns;
  std::uint64_t completed = 0;
};

void driver_loop(std::vector<LoadConn>& conns,
                 const std::vector<std::uint8_t>& request,
                 std::uint64_t measure_start_ns, std::uint64_t deadline_ns,
                 DriverStats& stats) {
  service::Poller poller;
  for (LoadConn& c : conns) {
    poller.add(c.sock.fd(), /*want_read=*/true, /*want_write=*/false);
  }
  // fd -> connection for event dispatch.
  std::unordered_map<int, LoadConn*> by_fd;
  for (LoadConn& c : conns) by_fd.emplace(c.sock.fd(), &c);

  bool measuring = false;
  std::vector<std::uint8_t> payload;
  std::uint8_t buf[16384];

  const auto pump_send = [&](LoadConn& c) {
    while (c.sent < request.size()) {
      const ssize_t w = ::send(c.sock.fd(), request.data() + c.sent,
                               request.size() - c.sent, MSG_NOSIGNAL);
      if (w > 0) {
        c.sent += static_cast<std::size_t>(w);
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!c.want_write) {
          c.want_write = true;
          poller.mod(c.sock.fd(), true, true);
        }
        return;
      }
      return;  // peer reset; this connection goes idle
    }
    if (c.want_write) {
      c.want_write = false;
      poller.mod(c.sock.fd(), true, false);
    }
    c.awaiting = true;
  };
  const auto start_request = [&](LoadConn& c) {
    c.sent = 0;
    c.awaiting = false;
    c.t_start = now_ns();
    pump_send(c);
  };

  for (LoadConn& c : conns) start_request(c);

  std::vector<service::Poller::Event> events;
  while (true) {
    const std::uint64_t now = now_ns();
    if (now >= deadline_ns) break;
    if (!measuring && now >= measure_start_ns) {
      stats.latencies_ns.clear();
      stats.completed = 0;
      measuring = true;
    }
    const int timeout_ms = static_cast<int>(
        std::min<std::uint64_t>((deadline_ns - now) / 1000000u + 1, 100));
    poller.wait(events, timeout_ms);
    for (const auto& event : events) {
      auto it = by_fd.find(event.fd);
      if (it == by_fd.end()) continue;
      LoadConn& c = *it->second;
      if (event.writable && !c.awaiting) pump_send(c);
      if (!(event.readable || event.hangup)) continue;
      while (true) {
        const ssize_t r = ::recv(c.sock.fd(), buf, sizeof(buf), 0);
        if (r > 0) {
          c.assembler.feed(buf, static_cast<std::size_t>(r));
          while (c.assembler.next(payload)) {
            const std::uint64_t rtt = now_ns() - c.t_start;
            if (measuring) {
              stats.latencies_ns.push_back(rtt);
              ++stats.completed;
            }
            start_request(c);
          }
          continue;
        }
        if (r < 0 && errno == EINTR) continue;
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        // EOF or hard error (server stopping): retire the connection.
        poller.del(c.sock.fd());
        by_fd.erase(it);
        break;
      }
    }
    if (by_fd.empty()) break;
  }
}

double percentile_us(std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return static_cast<double>(sorted[std::min(idx, sorted.size() - 1)]) / 1e3;
}

PhaseResult run_phase(service::EntropyServer& server, std::size_t conns,
                      std::size_t drivers, std::uint32_t request_bytes,
                      int warmup_ms, int window_ms) {
  const auto request =
      service::encode_get_request(service::Quality::Raw, request_bytes);
  const std::size_t max_payload = request_bytes + 64;

  // Establish every connection up front (the phase measures steady state,
  // not connect storms).
  std::vector<std::vector<LoadConn>> per_driver(drivers);
  for (std::size_t i = 0; i < conns; ++i) {
    service::Socket sock =
        service::connect_tcp("127.0.0.1", server.tcp_port());
    if (!sock.valid()) {
      std::printf("FAIL: connect %zu/%zu refused\n", i, conns);
      std::exit(1);
    }
    sock.set_nonblocking(true);
    sock.set_nodelay();
    per_driver[i % drivers].emplace_back(std::move(sock), max_payload);
  }

  const std::uint64_t t0 = now_ns();
  const std::uint64_t measure_start =
      t0 + static_cast<std::uint64_t>(warmup_ms) * 1000000u;
  const std::uint64_t deadline =
      measure_start + static_cast<std::uint64_t>(window_ms) * 1000000u;

  std::vector<DriverStats> stats(drivers);
  std::vector<std::thread> threads;
  threads.reserve(drivers);
  for (std::size_t d = 0; d < drivers; ++d) {
    threads.emplace_back([&, d] {
      driver_loop(per_driver[d], request, measure_start, deadline, stats[d]);
    });
  }
  for (auto& thread : threads) thread.join();

  std::vector<std::uint64_t> all;
  std::uint64_t completed = 0;
  for (const DriverStats& s : stats) {
    all.insert(all.end(), s.latencies_ns.begin(), s.latencies_ns.end());
    completed += s.completed;
  }
  std::sort(all.begin(), all.end());

  PhaseResult result;
  result.connections = conns;
  result.completed = completed;
  const double window_s = static_cast<double>(window_ms) / 1e3;
  result.throughput_mbit_s = static_cast<double>(completed) *
                             static_cast<double>(request_bytes) * 8.0 /
                             window_s / 1e6;
  result.p50_us = percentile_us(all, 0.50);
  result.p99_us = percentile_us(all, 0.99);
  result.p999_us = percentile_us(all, 0.999);

  // Drop the connections and wait for the server to reap the slots so the
  // next phase starts clean.
  per_driver.clear();
  const auto drain_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.active_connections() > 0 &&
         std::chrono::steady_clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  dhtrng::bench::accept_flags(argc, argv,
                              {"connections", "drivers", "request-bytes",
                               "shards", "warmup-ms", "window-ms", "out",
                               "trajectory", "baseline", "max-regress-pct"},
                              {"quick"});
  using dhtrng::bench::flag;
  using dhtrng::bench::flag_set;
  using dhtrng::bench::flag_str;

  const bool quick = flag_set(argc, argv, "quick");
  const std::string conn_list =
      flag_str(argc, argv, "connections", quick ? "64,256" : "64,512,4096");
  const auto drivers = static_cast<std::size_t>(
      std::max<long long>(1, flag(argc, argv, "drivers", 2)));
  const auto request_bytes = static_cast<std::uint32_t>(
      flag(argc, argv, "request-bytes", 256));
  const auto shards =
      static_cast<std::size_t>(flag(argc, argv, "shards", 4));
  const int warmup_ms =
      static_cast<int>(flag(argc, argv, "warmup-ms", quick ? 100 : 250));
  const int window_ms =
      static_cast<int>(flag(argc, argv, "window-ms", quick ? 400 : 1000));
  const std::string out_path =
      flag_str(argc, argv, "out", "BENCH_service_load.json");
  const std::string traj_path = flag_str(argc, argv, "trajectory",
                                         dhtrng::bench::trajectory_path("service"));

  std::vector<std::size_t> conn_counts;
  {
    std::stringstream ss(conn_list);
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (!item.empty()) conn_counts.push_back(std::stoull(item));
    }
  }
  if (conn_counts.empty()) conn_counts = {64};
  const std::size_t fit = raise_fd_limit(
      *std::max_element(conn_counts.begin(), conn_counts.end()));
  for (std::size_t& c : conn_counts) c = std::min(c, fit);

  dhtrng::bench::header(
      "service load: event-loop latency/throughput vs connection fan-out",
      "serving-layer scaling (repo infrastructure; not a paper table)");
  std::printf("config: connections {%s}, %zu drivers, %u-byte GETs, "
              "%zu shards, %d ms window%s\n\n",
              conn_list.c_str(), drivers, request_bytes, shards, window_ms,
              quick ? " (--quick)" : "");

  dhtrng::service::EntropyServerConfig cfg;
  cfg.shards = shards;
  cfg.max_connections =
      *std::max_element(conn_counts.begin(), conn_counts.end()) + 64;
  cfg.max_request_bytes = request_bytes;
  cfg.pool.producers = 4;
  cfg.pool.buffer_bytes = 1 << 20;
  cfg.pool.block_bits = 1 << 15;
  dhtrng::service::EntropyServer server(
      cfg, [](std::size_t, std::uint64_t seed) {
        return std::make_unique<FastSource>(seed);
      });

  std::printf("%12s %12s %10s %10s %10s %12s\n", "connections", "Mbit/s",
              "p50 us", "p99 us", "p999 us", "requests");
  std::vector<PhaseResult> results;
  for (std::size_t conns : conn_counts) {
    const PhaseResult r = run_phase(server, conns, drivers, request_bytes,
                                    warmup_ms, window_ms);
    std::printf("%12zu %12.1f %10.1f %10.1f %10.1f %12llu\n", r.connections,
                r.throughput_mbit_s, r.p50_us, r.p99_us, r.p999_us,
                static_cast<unsigned long long>(r.completed));
    results.push_back(r);
  }
  server.stop();

  const PhaseResult& base = results.front();
  const PhaseResult& top = results.back();
  const double scaling_efficiency =
      base.throughput_mbit_s > 0.0
          ? top.throughput_mbit_s / base.throughput_mbit_s
          : 0.0;
  std::printf("\nscaling efficiency (%zu conns vs %zu): %.3f\n",
              top.connections, base.connections, scaling_efficiency);

  std::ostringstream json;
  json << "{\n  \"bench\": \"service_load\",\n";
  json << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n";
  json << "  \"request_bytes\": " << request_bytes << ",\n";
  json << "  \"shards\": " << shards << ",\n";
  json << "  \"epoll\": " << (server.using_epoll() ? 1 : 0) << ",\n";
  json << "  \"phases\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PhaseResult& r = results[i];
    json << "    {\"connections\": " << r.connections
         << ", \"mbit_per_s\": " << r.throughput_mbit_s
         << ", \"p50_us\": " << r.p50_us << ", \"p99_us\": " << r.p99_us
         << ", \"p999_us\": " << r.p999_us
         << ", \"requests\": " << r.completed << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"scaling_efficiency\": " << scaling_efficiency << "\n}\n";
  {
    std::ofstream out(out_path);
    out << json.str();
  }
  dhtrng::bench::append_trajectory(
      traj_path, "service_load",
      top.p50_us * 1e3,  // ns per request at max fan-out
      top.throughput_mbit_s,
      "\"connections\": " + std::to_string(top.connections) +
          ", \"p99_us\": " + std::to_string(top.p99_us) +
          ", \"p999_us\": " + std::to_string(top.p999_us) +
          ", \"scaling_efficiency\": " + std::to_string(scaling_efficiency));
  std::printf("wrote %s and appended %s\n", out_path.c_str(),
              traj_path.c_str());

  return dhtrng::bench::baseline_gate(
      argc, argv,
      {{"scaling_efficiency", scaling_efficiency, "scaling_efficiency", ""}},
      dhtrng::bench::IfMissing::Fail);
}
