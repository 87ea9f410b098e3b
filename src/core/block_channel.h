// Bounded byte channel between EntropyPool producers and its consumers:
// whole blocks go in, arbitrary spans come out.
//
// Semantics:
//  * push(block) waits until the *whole* block fits, then appends it under
//    one lock — a block is never split across a wait, so concurrent
//    producers interleave at block granularity and each producer's bytes
//    stay in its own order;
//  * try_take(out) never waits: it copies as many buffered bytes as fit;
//  * a consumer that comes up short arms a Doorbell — the one way to wait
//    for bytes, whether the consumer is an event loop that must not block
//    (a self-pipe) or a thread that may (a semaphore, see
//    EntropyPool::get_bytes).  Armed doorbells are rung together, once,
//    as soon as the buffer covers the smallest shortfall any of them armed
//    with, or a producer finds the buffer too full to publish (so a
//    request larger than the buffer still progresses), or the channel
//    closes.  A consumer therefore wakes about once per request, not once
//    per block;
//  * close() fails every pending and future push, wakes every blocked
//    producer and rings every armed doorbell, while takes keep draining
//    what remains — a consumer always sees every byte published before
//    the close.
// Storage is one ring of `capacity` bytes allocated up front; publishing
// and taking copy at most two spans each.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <span>
#include <vector>

namespace dhtrng::core {

/// One-shot readiness notification for a consumer that found the channel
/// short (see BlockChannel::try_take).  ring() runs on the publishing or
/// closing thread with the channel lock held, so it must be cheap and must
/// not call back into the channel (a self-pipe write or a semaphore
/// release).  Each arming is rung exactly once.
class Doorbell {
 public:
  virtual ~Doorbell() = default;
  virtual void ring() = 0;
};

class BlockChannel {
 public:
  /// `capacity` bytes of buffer; pushes larger than this are rejected.
  explicit BlockChannel(std::size_t capacity);

  BlockChannel(const BlockChannel&) = delete;
  BlockChannel& operator=(const BlockChannel&) = delete;

  std::size_t capacity() const { return ring_.size(); }
  std::size_t size() const;
  /// Closed with nothing left to take.  Once true it stays true.
  bool drained() const;

  /// Blocking whole-block publish; returns false (dropping the block) once
  /// closed.  Throws std::invalid_argument for a block above capacity().
  bool push(std::span<const std::uint8_t> block);

  /// Copy up to out.size() buffered bytes into `out`; returns the count.
  /// When the count is short of out.size() and `doorbell` is non-null and
  /// the channel is open, the doorbell is armed with the shortfall (at
  /// most once per doorbell, however many consumers behind it are short;
  /// see the file comment for when it rings).
  std::size_t try_take(std::span<std::uint8_t> out,
                       Doorbell* doorbell = nullptr);

  /// Fail pending/future pushes, let takes drain what remains, wake every
  /// blocked producer and ring every armed doorbell.  Idempotent.
  void close();

 private:
  void ring_armed_locked();

  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::vector<std::uint8_t> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t producers_waiting_ = 0;
  static constexpr std::size_t kNoWant =
      std::numeric_limits<std::size_t>::max();
  std::vector<Doorbell*> armed_;
  std::size_t armed_want_ = kNoWant;  ///< smallest armed shortfall
  bool closed_ = false;
};

}  // namespace dhtrng::core
