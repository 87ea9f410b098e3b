// Protocol layer tests: the pure codec and the FrameAssembler byte-stream
// state machine, then framing-robustness fuzz against a live server —
// byte-at-a-time delivery, frames split across read() boundaries, frames
// coalesced in one segment, truncated, oversized, zero-length and garbage
// frames, mid-request disconnects, and a slow-loris peer holding a
// half-written frame.  The server must answer with a structured error or
// close cleanly, never crash, hang, leak the connection slot (the
// active-connection gauge must drain to zero) or leak a file descriptor.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <dirent.h>
#endif

#include "service/client.h"
#include "service/entropy_server.h"
#include "service/frame_assembler.h"
#include "service/protocol.h"
#include "service/socket.h"
#include "support/fault_sources.h"
#include "support/rng.h"
#include "support/service_helpers.h"

namespace dhtrng::service {
namespace {

using testsupport::IdealSource;
using testsupport::eventually;
using testsupport::ideal_factory;
using testsupport::read_response;

// ---------------------------------------------------------------- codec

TEST(Protocol, GetRequestRoundTrips) {
  const auto frame = encode_get_request(Quality::Conditioned, 4096);
  ASSERT_EQ(frame.size(), kLenPrefixBytes + kGetPayloadBytes);
  EXPECT_EQ(read_u32le(frame.data()), kGetPayloadBytes);
  Request req;
  ASSERT_EQ(decode_request(frame.data() + kLenPrefixBytes,
                           frame.size() - kLenPrefixBytes, req),
            DecodeError::None);
  EXPECT_EQ(req.op, Opcode::Get);
  EXPECT_EQ(req.quality, Quality::Conditioned);
  EXPECT_EQ(req.n_bytes, 4096u);
}

TEST(Protocol, StatsRequestRoundTrips) {
  const auto frame = encode_stats_request();
  Request req;
  ASSERT_EQ(decode_request(frame.data() + kLenPrefixBytes,
                           frame.size() - kLenPrefixBytes, req),
            DecodeError::None);
  EXPECT_EQ(req.op, Opcode::Stats);
}

TEST(Protocol, DecodeRejectsMalformedRequests) {
  Request req;
  EXPECT_EQ(decode_request(nullptr, 0, req), DecodeError::Empty);

  const std::uint8_t bad_op[] = {0x7f, 0, 0, 0, 0, 0};
  EXPECT_EQ(decode_request(bad_op, sizeof(bad_op), req),
            DecodeError::BadOpcode);

  const std::uint8_t bad_quality[] = {0x01, 9, 0, 0, 0, 0};
  EXPECT_EQ(decode_request(bad_quality, sizeof(bad_quality), req),
            DecodeError::BadQuality);

  const std::uint8_t short_get[] = {0x01, 0, 16};
  EXPECT_EQ(decode_request(short_get, sizeof(short_get), req),
            DecodeError::BadLength);

  const std::uint8_t long_stats[] = {0x02, 0};
  EXPECT_EQ(decode_request(long_stats, sizeof(long_stats), req),
            DecodeError::BadLength);
}

TEST(Protocol, ResponseRoundTrips) {
  const std::vector<std::uint8_t> body = {1, 2, 3, 4, 5};
  const auto frame = encode_response_frame(Status::Ok, kFlagDegraded, body);
  Response resp;
  ASSERT_TRUE(decode_response_payload(frame.data() + kLenPrefixBytes,
                                      frame.size() - kLenPrefixBytes, resp));
  EXPECT_EQ(resp.status, Status::Ok);
  EXPECT_TRUE(resp.degraded());
  EXPECT_EQ(resp.payload, body);

  const auto err = encode_error_frame(Status::Exhausted, "gone");
  ASSERT_TRUE(decode_response_payload(err.data() + kLenPrefixBytes,
                                      err.size() - kLenPrefixBytes, resp));
  EXPECT_EQ(resp.status, Status::Exhausted);
  EXPECT_EQ(resp.text(), "gone");
}

TEST(Protocol, DecodeResponseRejectsInconsistentFrames) {
  Response resp;
  const std::uint8_t too_short[] = {0, 0, 1};
  EXPECT_FALSE(decode_response_payload(too_short, sizeof(too_short), resp));

  // Inner length says 4 bytes but only 2 follow.
  const std::uint8_t mismatched[] = {0, 0, 4, 0, 0, 0, 0xaa, 0xbb};
  EXPECT_FALSE(decode_response_payload(mismatched, sizeof(mismatched), resp));

  const std::uint8_t bad_status[] = {99, 0, 0, 0, 0, 0};
  EXPECT_FALSE(decode_response_payload(bad_status, sizeof(bad_status), resp));
}

// ----------------------------------------- frame assembly (pure, no I/O)

/// One well-formed GET frame (length prefix included) for feeding the
/// assembler in adversarial chunkings.
std::vector<std::uint8_t> get_frame(std::uint32_t n_bytes) {
  return encode_get_request(Quality::Raw, n_bytes);
}

TEST(FrameAssembler, ByteAtATimeReassemblesOneFrame) {
  const auto frame = get_frame(4096);
  FrameAssembler fa;
  std::vector<std::uint8_t> payload;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    fa.feed(&frame[i], 1);
    EXPECT_FALSE(fa.next(payload)) << "emitted a frame " << (frame.size() - 1 - i)
                                   << " bytes early";
    EXPECT_EQ(fa.error(), FrameAssembler::Error::None);
  }
  fa.feed(&frame.back(), 1);
  ASSERT_TRUE(fa.next(payload));
  EXPECT_EQ(payload, std::vector<std::uint8_t>(frame.begin() + kLenPrefixBytes,
                                               frame.end()));
  EXPECT_EQ(fa.buffered(), 0u);
  EXPECT_FALSE(fa.next(payload));
}

TEST(FrameAssembler, CoalescedFramesEmitInOrder) {
  // Three complete frames plus a dangling partial, delivered as one read.
  std::vector<std::uint8_t> stream;
  for (const std::uint32_t n : {16u, 256u, 65536u}) {
    const auto f = get_frame(n);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  const auto partial = encode_stats_request();
  stream.insert(stream.end(), partial.begin(), partial.end() - 1);

  FrameAssembler fa;
  fa.feed(stream.data(), stream.size());
  std::vector<std::uint8_t> payload;
  for (const std::uint32_t n : {16u, 256u, 65536u}) {
    ASSERT_TRUE(fa.next(payload));
    Request req;
    ASSERT_EQ(decode_request(payload.data(), payload.size(), req),
              DecodeError::None);
    EXPECT_EQ(req.op, Opcode::Get);
    EXPECT_EQ(req.n_bytes, n);
  }
  // The dangling partial stays buffered until its last byte arrives.
  EXPECT_FALSE(fa.next(payload));
  EXPECT_EQ(fa.error(), FrameAssembler::Error::None);
  EXPECT_EQ(fa.buffered(), partial.size() - 1);
  fa.feed(&partial.back(), 1);
  ASSERT_TRUE(fa.next(payload));
  Request req;
  ASSERT_EQ(decode_request(payload.data(), payload.size(), req),
            DecodeError::None);
  EXPECT_EQ(req.op, Opcode::Stats);
}

TEST(FrameAssembler, EverySplitPointOfTwoFramesReassembles) {
  // Two back-to-back frames split at every possible boundary: the
  // assembler must emit exactly the same two payloads regardless of where
  // the read() boundary fell.
  std::vector<std::uint8_t> stream = get_frame(1234);
  const auto second = get_frame(7);
  stream.insert(stream.end(), second.begin(), second.end());
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameAssembler fa;
    fa.feed(stream.data(), split);
    std::vector<std::vector<std::uint8_t>> got;
    std::vector<std::uint8_t> payload;
    while (fa.next(payload)) got.push_back(payload);
    fa.feed(stream.data() + split, stream.size() - split);
    while (fa.next(payload)) got.push_back(payload);
    ASSERT_EQ(got.size(), 2u) << "split at byte " << split;
    Request req;
    ASSERT_EQ(decode_request(got[0].data(), got[0].size(), req),
              DecodeError::None);
    EXPECT_EQ(req.n_bytes, 1234u);
    ASSERT_EQ(decode_request(got[1].data(), got[1].size(), req),
              DecodeError::None);
    EXPECT_EQ(req.n_bytes, 7u);
    EXPECT_EQ(fa.buffered(), 0u);
  }
}

TEST(FrameAssembler, ZeroLengthHeaderLatchesStickyError) {
  FrameAssembler fa;
  const std::uint8_t zero[kLenPrefixBytes] = {0, 0, 0, 0};
  fa.feed(zero, sizeof(zero));
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(fa.next(payload));
  EXPECT_EQ(fa.error(), FrameAssembler::Error::ZeroLength);
  // The stream is untrusted past a bad header: a valid frame behind it
  // must NOT be emitted, and further feeds are ignored.
  const auto valid = get_frame(8);
  fa.feed(valid.data(), valid.size());
  EXPECT_FALSE(fa.next(payload));
  EXPECT_EQ(fa.error(), FrameAssembler::Error::ZeroLength);
}

TEST(FrameAssembler, OversizedHeaderLatchesBeforePayloadArrives) {
  FrameAssembler fa(/*max_payload=*/64);
  std::uint8_t header[kLenPrefixBytes];
  write_u32le(header, 65);  // one byte over budget — rejected on sight
  fa.feed(header, sizeof(header));
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(fa.next(payload));
  EXPECT_EQ(fa.error(), FrameAssembler::Error::TooLarge);
}

TEST(FrameAssembler, CompactionPreservesAPartialFrameAtTheSeam) {
  // Enough consumed traffic to cross the 4096-byte compaction threshold,
  // with a frame deliberately left half-delivered across the compaction:
  // the pending bytes must survive the buffer shuffle intact.
  FrameAssembler fa(/*max_payload=*/kMaxRequestPayload);
  std::vector<std::uint8_t> payload;
  const auto filler = get_frame(1);  // 10 bytes on the wire
  const auto tail = encode_subscribe_request(Quality::Drbg, 96, 250);
  // Buffer 6000 wire bytes plus half the tail frame BEFORE consuming, so
  // the consumed prefix crosses 4096 while the tail half is still pending
  // and the erase-compaction branch actually runs.
  for (int i = 0; i < 600; ++i) fa.feed(filler.data(), filler.size());
  fa.feed(tail.data(), tail.size() / 2);
  for (int i = 0; i < 600; ++i) ASSERT_TRUE(fa.next(payload));
  EXPECT_FALSE(fa.next(payload));
  fa.feed(tail.data() + tail.size() / 2, tail.size() - tail.size() / 2);
  ASSERT_TRUE(fa.next(payload));
  Request req;
  ASSERT_EQ(decode_request(payload.data(), payload.size(), req),
            DecodeError::None);
  EXPECT_EQ(req.op, Opcode::Subscribe);
  EXPECT_EQ(req.quality, Quality::Drbg);
  EXPECT_EQ(req.n_bytes, 96u);
  EXPECT_EQ(req.interval_ms, 250u);
}

// ------------------------------------- accept-errno classification (pure)

TEST(AcceptErrno, TransientFatalAndBackpressureClassesAreSeparated) {
  EXPECT_EQ(classify_accept_errno(EAGAIN), AcceptOutcome::WouldBlock);
  EXPECT_EQ(classify_accept_errno(EWOULDBLOCK), AcceptOutcome::WouldBlock);

  EXPECT_EQ(classify_accept_errno(EINTR), AcceptOutcome::Retry);
  EXPECT_EQ(classify_accept_errno(ECONNABORTED), AcceptOutcome::Retry);
#ifdef EPROTO
  EXPECT_EQ(classify_accept_errno(EPROTO), AcceptOutcome::Retry);
#endif

  EXPECT_EQ(classify_accept_errno(EMFILE), AcceptOutcome::SoftExhausted);
  EXPECT_EQ(classify_accept_errno(ENFILE), AcceptOutcome::SoftExhausted);
  EXPECT_EQ(classify_accept_errno(ENOBUFS), AcceptOutcome::SoftExhausted);
  EXPECT_EQ(classify_accept_errno(ENOMEM), AcceptOutcome::SoftExhausted);

  EXPECT_EQ(classify_accept_errno(EBADF), AcceptOutcome::Fatal);
  EXPECT_EQ(classify_accept_errno(EINVAL), AcceptOutcome::Fatal);
  EXPECT_EQ(classify_accept_errno(0), AcceptOutcome::Fatal);
}

// ------------------------------------------------- live-server fixtures

struct ServerFixture {
  std::unique_ptr<EntropyServer> server;

  explicit ServerFixture(EntropyServerConfig cfg = {}) {
    cfg.pool.producers = 2;
    cfg.pool.buffer_bytes = 1 << 14;
    cfg.pool.block_bits = 512;
    server = std::make_unique<EntropyServer>(cfg, ideal_factory());
  }

  Socket raw_connect() {
    Socket s = connect_tcp("127.0.0.1", server->tcp_port());
    EXPECT_TRUE(s.valid());
    return s;
  }

  EntropyClient client() {
    return EntropyClient::connect_tcp("127.0.0.1", server->tcp_port());
  }

  bool drained() {
    return eventually([&] { return server->active_connections() == 0; });
  }
};

// --------------------------------------------------- framing robustness

TEST(ServiceProtocol, ServesWellFormedRequests) {
  ServerFixture fx;
  auto client = fx.client();
  const auto raw = client.fetch(256, Quality::Raw);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw.bytes.size(), 256u);
  EXPECT_FALSE(raw.degraded);
  const auto stats = client.stats();
  EXPECT_NE(stats.find("state HEALTHY"), std::string::npos);
  EXPECT_NE(stats.find("bytes_served_raw 256"), std::string::npos);
  client.close();
  EXPECT_TRUE(fx.drained());
}

TEST(ServiceProtocol, ZeroLengthFrameGetsStructuredError) {
  ServerFixture fx;
  Socket s = fx.raw_connect();
  const std::uint8_t zero_header[kLenPrefixBytes] = {0, 0, 0, 0};
  ASSERT_TRUE(s.write_all(zero_header, sizeof(zero_header)));
  const auto resp = read_response(s);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, Status::BadRequest);
  EXPECT_NE(resp->text().find("zero-length"), std::string::npos);
  // The connection is closed after the error: the next read sees EOF.
  std::uint8_t byte;
  EXPECT_FALSE(s.read_exact(&byte, 1));
  s.close();
  EXPECT_TRUE(fx.drained());
  EXPECT_GE(fx.server->metrics().protocol_errors.load(), 1u);
}

TEST(ServiceProtocol, OversizedFrameGetsStructuredError) {
  ServerFixture fx;
  Socket s = fx.raw_connect();
  std::uint8_t header[kLenPrefixBytes];
  write_u32le(header, 0x7fffffff);  // claims a 2 GiB request frame
  ASSERT_TRUE(s.write_all(header, sizeof(header)));
  const auto resp = read_response(s);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, Status::BadRequest);
  EXPECT_NE(resp->text().find("too large"), std::string::npos);
  s.close();
  EXPECT_TRUE(fx.drained());
}

TEST(ServiceProtocol, TruncatedFrameThenDisconnectClosesCleanly) {
  ServerFixture fx;
  {
    Socket s = fx.raw_connect();
    // Header promises a 6-byte GET payload; send only half and vanish.
    std::uint8_t header[kLenPrefixBytes];
    write_u32le(header, static_cast<std::uint32_t>(kGetPayloadBytes));
    ASSERT_TRUE(s.write_all(header, sizeof(header)));
    const std::uint8_t half[] = {0x01, 0x00, 0x10};
    ASSERT_TRUE(s.write_all(half, sizeof(half)));
  }  // destructor closes mid-frame
  EXPECT_TRUE(fx.drained());
  EXPECT_TRUE(eventually(
      [&] { return fx.server->metrics().protocol_errors.load() >= 1; }));
  // The server survived: a fresh well-formed request still works.
  auto client = fx.client();
  EXPECT_TRUE(client.fetch(64).ok());
  client.close();
  EXPECT_TRUE(fx.drained());
}

TEST(ServiceProtocol, MidHeaderDisconnectClosesCleanly) {
  ServerFixture fx;
  {
    Socket s = fx.raw_connect();
    const std::uint8_t partial[] = {0x06, 0x00};  // 2 of 4 header bytes
    ASSERT_TRUE(s.write_all(partial, sizeof(partial)));
  }
  EXPECT_TRUE(fx.drained());
  auto client = fx.client();
  EXPECT_TRUE(client.fetch(64).ok());
}

TEST(ServiceProtocol, GarbageOpcodeAndQualityGetStructuredErrors) {
  ServerFixture fx;
  {
    Socket s = fx.raw_connect();
    std::uint8_t frame[kLenPrefixBytes + kGetPayloadBytes];
    write_u32le(frame, static_cast<std::uint32_t>(kGetPayloadBytes));
    frame[4] = 0x5a;  // unknown opcode
    frame[5] = 0;
    write_u32le(frame + 6, 16);
    ASSERT_TRUE(s.write_all(frame, sizeof(frame)));
    const auto resp = read_response(s);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, Status::BadRequest);
  }
  {
    Socket s = fx.raw_connect();
    std::uint8_t frame[kLenPrefixBytes + kGetPayloadBytes];
    write_u32le(frame, static_cast<std::uint32_t>(kGetPayloadBytes));
    frame[4] = 0x01;
    frame[5] = 0x42;  // unknown quality
    write_u32le(frame + 6, 16);
    ASSERT_TRUE(s.write_all(frame, sizeof(frame)));
    const auto resp = read_response(s);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, Status::BadRequest);
    EXPECT_NE(resp->text().find("quality"), std::string::npos);
  }
  EXPECT_TRUE(fx.drained());
}

TEST(ServiceProtocol, RandomGarbageFuzzNeverWedgesTheServer) {
  ServerFixture fx;
  support::Xoshiro256 rng(20260807);
  for (int iter = 0; iter < 50; ++iter) {
    Socket s = fx.raw_connect();
    ASSERT_TRUE(s.valid());
    const std::size_t len = 1 + static_cast<std::size_t>(rng.below(96));
    std::vector<std::uint8_t> blob(len);
    for (auto& b : blob) b = static_cast<std::uint8_t>(rng.below(256));
    // Write and disconnect immediately — blocking on a response here
    // could deadlock the test when the blob happens to be a frame header
    // promising bytes that never arrive.  The server-side outcome under
    // scrutiny is "no crash, no leaked slot", asserted below.
    if (!s.write_all(blob.data(), blob.size())) continue;
    s.close();
  }
  EXPECT_TRUE(fx.drained());
  // After all that abuse the server still serves a clean request.
  auto client = fx.client();
  const auto result = client.fetch(128, Quality::Drbg);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.bytes.size(), 128u);
  client.close();
  EXPECT_TRUE(fx.drained());
}

// ----------------------------------------------- slots and backpressure

TEST(ServiceProtocol, ConnectionSlotsDrainToZero) {
  EntropyServerConfig cfg;
  cfg.shards = 8;
  ServerFixture fx(cfg);
  std::vector<EntropyClient> clients;
  for (int i = 0; i < 6; ++i) {
    clients.push_back(fx.client());
    EXPECT_TRUE(clients.back().fetch(32).ok());
  }
  EXPECT_EQ(fx.server->active_connections(), 6u);
  for (auto& c : clients) c.close();
  EXPECT_TRUE(fx.drained());
  const auto& m = fx.server->metrics();
  EXPECT_EQ(m.connections_closed.load(), m.connections_accepted.load());
}

TEST(ServiceProtocol, BusyWhenConnectionSlotsExhausted) {
  EntropyServerConfig cfg;
  cfg.max_connections = 1;
  cfg.shards = 2;
  ServerFixture fx(cfg);
  auto holder = fx.client();
  ASSERT_TRUE(holder.fetch(16).ok());  // slot claimed and live
  Socket rejected = fx.raw_connect();
  const auto resp = read_response(rejected);  // Busy arrives unsolicited
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, Status::Busy);
  rejected.close();
  holder.close();
  EXPECT_TRUE(fx.drained());
  EXPECT_EQ(fx.server->metrics().responses_busy.load(), 1u);
}

TEST(ServiceProtocol, WriteQueueOverflowAnswersOneBusyThenCloses) {
  // A peer that pipelines GETs and never reads: once the kernel socket
  // buffers are full, replies pile up in the connection's write queue
  // until max_write_queue_bytes, and the server answers with one Busy
  // frame and a close instead of buffering without bound.
  EntropyServerConfig cfg;
  cfg.max_write_queue_bytes = 256 << 10;
  ServerFixture fx(cfg);
  const Metrics& m = fx.server->metrics();
  Socket s = fx.raw_connect();
  constexpr std::uint32_t kGetBytes = 64 << 10;
  constexpr int kGetsPerBatch = 16;  // 1 MiB of replies per batch
  const auto get = encode_get_request(Quality::Raw, kGetBytes);
  std::vector<std::uint8_t> batch;
  for (int i = 0; i < kGetsPerBatch; ++i) {
    batch.insert(batch.end(), get.begin(), get.end());
  }
  // The loopback buffers absorb a few MiB first; each batch is served
  // (or overflows the queue) before the next is sent.
  std::uint64_t sent = 0;
  for (int b = 0; b < 64 && m.write_queue_overflows.load() == 0; ++b) {
    ASSERT_TRUE(s.write_all(batch.data(), batch.size()));
    sent += kGetsPerBatch;
    ASSERT_TRUE(eventually([&] {
      return m.write_queue_overflows.load() > 0 ||
             m.responses_ok.load() == sent;
    }));
  }
  ASSERT_EQ(m.write_queue_overflows.load(), 1u);

  // Reading now drains whole Ok replies, then exactly one Busy, then EOF.
  std::size_t ok = 0;
  std::size_t busy = 0;
  while (const auto resp = read_response(s)) {
    if (resp->status == Status::Ok) {
      EXPECT_EQ(busy, 0u) << "Ok reply after the Busy frame";
      EXPECT_EQ(resp->payload.size(), kGetBytes);
      ++ok;
      continue;
    }
    EXPECT_EQ(resp->status, Status::Busy);
    EXPECT_EQ(resp->text(), "write queue overflow");
    ++busy;
  }
  EXPECT_GT(ok, 0u);
  EXPECT_EQ(busy, 1u);
  s.close();
  EXPECT_TRUE(fx.drained());
  EXPECT_EQ(m.write_queue_overflows.load(), 1u);
  EXPECT_EQ(m.connections_active.load(), 0u);
  // The GET whose reply was dropped counts as the one Busy response, not
  // as an Ok one: the counters match what the client read.
  EXPECT_EQ(m.responses_ok.load(), ok);
  EXPECT_EQ(m.responses_busy.load(), 1u);
  EXPECT_EQ(m.bytes_served_total.load(), ok * kGetBytes);
}

TEST(ServiceProtocol, TooLargeRequestKeepsConnectionUsable) {
  EntropyServerConfig cfg;
  cfg.max_request_bytes = 1024;
  ServerFixture fx(cfg);
  auto client = fx.client();
  const auto too_large = client.fetch(2048);
  EXPECT_EQ(too_large.status, Status::TooLarge);
  EXPECT_FALSE(too_large.detail.empty());
  // A protocol-level refusal is not a protocol error: the conversation
  // continues on the same connection.
  const auto ok = client.fetch(512);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.bytes.size(), 512u);
  client.close();
  EXPECT_TRUE(fx.drained());
  EXPECT_EQ(fx.server->metrics().protocol_errors.load(), 0u);
}

TEST(ServiceProtocol, TokenBucketRateLimitsDeterministically) {
  // A frozen injected clock means no refill ever happens: the budget is
  // exactly the burst, and acceptance is byte-exact.
  EntropyServerConfig cfg;
  cfg.per_conn_rate_bytes_per_s = 1;  // enabled, but frozen clock: no refill
  cfg.per_conn_burst_bytes = 100;
  cfg.clock = [] { return std::uint64_t{0}; };
  ServerFixture fx(cfg);
  auto client = fx.client();
  EXPECT_TRUE(client.fetch(64).ok());           // 36 left
  const auto rejected = client.fetch(64);       // needs 64 > 36
  EXPECT_EQ(rejected.status, Status::RateLimited);
  EXPECT_FALSE(rejected.detail.empty());
  EXPECT_TRUE(client.fetch(36).ok());           // exactly drains the bucket
  EXPECT_EQ(client.fetch(1).status, Status::RateLimited);
  client.close();
  EXPECT_TRUE(fx.drained());
  const auto& m = fx.server->metrics();
  EXPECT_EQ(m.responses_rate_limited.load(), 2u);
  EXPECT_EQ(m.bytes_served_total.load(), 100u);
}

TEST(ServiceProtocol, UnixDomainTransportServes) {
  EntropyServerConfig cfg;
  cfg.enable_tcp = false;
  cfg.unix_path = testing::TempDir() + "dhtrng_service_test.sock";
  ServerFixture fx(cfg);
  auto client = EntropyClient::connect_unix(fx.server->unix_path());
  const auto result = client.fetch(256, Quality::Conditioned);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.bytes.size(), 256u);
  client.close();
  EXPECT_TRUE(fx.drained());
}

TEST(ServiceProtocol, TcpAndUnixAcceptsShareOneRoundRobin) {
  // Shard 0 owns both listeners and deals every accept, whatever its
  // transport, round-robin over all three shards — two rounds here, all
  // held open at once.
  EntropyServerConfig cfg;
  cfg.shards = 3;
  cfg.unix_path = testing::TempDir() + "dhtrng_service_rr_test.sock";
  ServerFixture fx(cfg);
  std::vector<EntropyClient> clients;
  for (int i = 0; i < 6; ++i) {
    const std::string& path = fx.server->unix_path();
    clients.push_back(i % 2 == 0 ? fx.client()
                                 : EntropyClient::connect_unix(path));
    const auto result = clients.back().fetch(64, Quality::Raw);
    ASSERT_TRUE(result.ok()) << "connection " << i;
    EXPECT_EQ(result.bytes.size(), 64u);
  }
  EXPECT_EQ(fx.server->active_connections(), 6u);
  EXPECT_EQ(fx.server->metrics().connections_accepted.load(), 6u);
  for (auto& c : clients) c.close();
  EXPECT_TRUE(fx.drained());
}

TEST(ServiceProtocol, StopUnblocksIdleConnections) {
  ServerFixture fx;
  auto client = fx.client();
  ASSERT_TRUE(client.fetch(64).ok());
  fx.server->stop();  // must not hang on the idle connection
  EXPECT_EQ(fx.server->active_connections(), 0u);
  EXPECT_THROW(client.fetch(64), ProtocolError);  // peer is gone
}

// ------------------------------------------ delivery-fragmentation fuzz

TEST(ServiceProtocol, ByteAtATimeDeliveryServes) {
  // The cruellest fragmentation a TCP peer can produce: one byte per
  // segment (small sleeps defeat Nagle coalescing on loopback).  The
  // event-loop read path must reassemble and answer normally.
  ServerFixture fx;
  Socket s = fx.raw_connect();
  const auto frame = encode_get_request(Quality::Conditioned, 48);
  for (const std::uint8_t byte : frame) {
    ASSERT_TRUE(s.write_all(&byte, 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto resp = read_response(s);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, Status::Ok);
  EXPECT_EQ(resp->payload.size(), 48u);
  s.close();
  EXPECT_TRUE(fx.drained());
  EXPECT_EQ(fx.server->metrics().protocol_errors.load(), 0u);
}

TEST(ServiceProtocol, FrameSplitAcrossReadBoundariesServes) {
  // Header and payload land in separate read() calls, with the payload
  // itself split mid-field — no boundary may confuse the assembler.
  ServerFixture fx;
  Socket s = fx.raw_connect();
  const auto frame = encode_get_request(Quality::Raw, 96);
  ASSERT_TRUE(s.write_all(frame.data(), kLenPrefixBytes));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(s.write_all(frame.data() + kLenPrefixBytes, 3));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(s.write_all(frame.data() + kLenPrefixBytes + 3,
                          frame.size() - kLenPrefixBytes - 3));
  const auto resp = read_response(s);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, Status::Ok);
  EXPECT_EQ(resp->payload.size(), 96u);
  s.close();
  EXPECT_TRUE(fx.drained());
}

TEST(ServiceProtocol, CoalescedFramesInOneSegmentServeInOrder) {
  // Four requests in a single write: responses must come back strictly in
  // request order (the FIFO write queue forbids interleaving).
  ServerFixture fx;
  Socket s = fx.raw_connect();
  std::vector<std::uint8_t> burst;
  for (const std::uint32_t n : {16u, 32u, 48u}) {
    const auto f = encode_get_request(Quality::Raw, n);
    burst.insert(burst.end(), f.begin(), f.end());
  }
  const auto stats = encode_stats_request();
  burst.insert(burst.end(), stats.begin(), stats.end());
  ASSERT_TRUE(s.write_all(burst.data(), burst.size()));

  for (const std::uint32_t n : {16u, 32u, 48u}) {
    const auto resp = read_response(s);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, Status::Ok);
    EXPECT_EQ(resp->payload.size(), n);
  }
  const auto resp = read_response(s);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, Status::Ok);
  EXPECT_NE(resp->text().find("bytes_served_total 96"), std::string::npos);
  s.close();
  EXPECT_TRUE(fx.drained());
}

#ifdef __linux__
/// Open file descriptors of this process (server + clients live in one
/// process here, so a leaked connection fd shows up in the count).
std::size_t open_fd_count() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  std::size_t n = 0;
  while (readdir(dir) != nullptr) ++n;
  closedir(dir);
  return n;
}
#endif

TEST(ServiceProtocol, SlowLorisReleasesSlotsAndLeaksNoFds) {
#ifndef __linux__
  GTEST_SKIP() << "fd accounting reads /proc/self/fd";
#else
  ServerFixture fx;
  // Warm every lazy allocation (DRBG, pool buffers) before the baseline.
  {
    auto warm = fx.client();
    ASSERT_TRUE(warm.fetch(32, Quality::Drbg).ok());
    warm.close();
  }
  ASSERT_TRUE(fx.drained());
  const std::size_t baseline = open_fd_count();
  ASSERT_GT(baseline, 0u);

  // Three slow-loris peers each hold a half-written frame open...
  std::vector<Socket> loris;
  for (int i = 0; i < 3; ++i) {
    Socket s = fx.raw_connect();
    const auto frame = encode_get_request(Quality::Raw, 64);
    ASSERT_TRUE(s.write_all(frame.data(), frame.size() - 2));
    loris.push_back(std::move(s));
  }
  EXPECT_TRUE(eventually(
      [&] { return fx.server->active_connections() == 3; }));

  // ...while the event loop keeps serving everyone else at full speed
  // (a blocking-read server would have parked three threads here).
  auto bystander = fx.client();
  ASSERT_TRUE(bystander.fetch(128).ok());
  bystander.close();

  // The loris connections vanish mid-frame: every slot must come back and
  // every fd must be reclaimed.
  const std::uint64_t errors_before =
      fx.server->metrics().protocol_errors.load();
  for (auto& s : loris) s.close();
  loris.clear();
  EXPECT_TRUE(fx.drained());
  EXPECT_TRUE(eventually([&] {
    return fx.server->metrics().protocol_errors.load() >= errors_before + 3;
  }));
  EXPECT_TRUE(eventually([&] { return open_fd_count() == baseline; }));
  const auto& m = fx.server->metrics();
  EXPECT_EQ(m.connections_closed.load(), m.connections_accepted.load());
#endif
}

// --------------------------------------------- accept-path fault injection

TEST(ServiceProtocol, AcceptEintrAndAbortRetriesThenServes) {
  // Regression for the PR 5 accept loop, which treated every accept errno
  // as "drop this iteration": EINTR/ECONNABORTED must be retried in place,
  // counted, and never escalate to the fatal path.
  EntropyServerConfig cfg;
  cfg.shards = 1;
  std::atomic<int> failures{4};
  cfg.accept_fn = [&failures](int listener_fd) -> int {
    const int left = failures.fetch_sub(1);
    if (left > 2) {
      errno = EINTR;
      return -1;
    }
    if (left > 0) {
      errno = ECONNABORTED;
      return -1;
    }
    return accept_nonblocking(listener_fd);
  };
  ServerFixture fx(cfg);
  auto client = fx.client();
  const auto result = client.fetch(64);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.bytes.size(), 64u);
  client.close();
  EXPECT_TRUE(fx.drained());
  const auto& m = fx.server->metrics();
  EXPECT_GE(m.accept_retries.load(), 4u);
  EXPECT_EQ(m.accept_fatal_errors.load(), 0u);
  EXPECT_EQ(m.connections_accepted.load(), 1u);
}

TEST(ServiceProtocol, AcceptFdExhaustionBacksOffAndRecovers) {
  // EMFILE-class pressure is not fatal: the loop backs off and the
  // level-triggered poller re-delivers the pending connection.
  EntropyServerConfig cfg;
  cfg.shards = 1;
  std::atomic<int> failures{2};
  cfg.accept_fn = [&failures](int listener_fd) -> int {
    if (failures.fetch_sub(1) > 0) {
      errno = EMFILE;
      return -1;
    }
    return accept_nonblocking(listener_fd);
  };
  ServerFixture fx(cfg);
  auto client = fx.client();
  ASSERT_TRUE(client.fetch(32).ok());
  client.close();
  EXPECT_TRUE(fx.drained());
  const auto& m = fx.server->metrics();
  EXPECT_GE(m.accept_soft_errors.load(), 2u);
  EXPECT_EQ(m.accept_fatal_errors.load(), 0u);
}

// -------------------------------------------------- poller backend matrix

TEST(ServiceProtocol, PollFallbackBackendServesIdentically) {
  // CI runs Linux, where epoll is the default; force_poll_backend keeps
  // the portable poll(2) path honest on the same platform.
  EntropyServerConfig cfg;
  cfg.force_poll_backend = true;
  cfg.shards = 2;
  ServerFixture fx(cfg);
  EXPECT_FALSE(fx.server->using_epoll());
  EXPECT_EQ(fx.server->shard_count(), 2u);
  auto client = fx.client();
  const auto result = client.fetch(256, Quality::Conditioned);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.bytes.size(), 256u);
  const auto stats = client.stats();
  EXPECT_NE(stats.find("epoll_wakeups"), std::string::npos);
  client.close();
  EXPECT_TRUE(fx.drained());
}

#ifdef __linux__
TEST(ServiceProtocol, EpollBackendIsTheLinuxDefault) {
  ServerFixture fx;
  EXPECT_TRUE(fx.server->using_epoll());
}
#endif

}  // namespace
}  // namespace dhtrng::service
