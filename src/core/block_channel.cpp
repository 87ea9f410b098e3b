#include "core/block_channel.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace dhtrng::core {

BlockChannel::BlockChannel(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

std::size_t BlockChannel::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

bool BlockChannel::drained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_ && count_ == 0;
}

bool BlockChannel::push(std::span<const std::uint8_t> block) {
  const std::size_t n = block.size();
  if (n > ring_.size()) {
    throw std::invalid_argument("BlockChannel: block larger than capacity");
  }
  std::unique_lock<std::mutex> lock(mutex_);
  if (!closed_ && ring_.size() - count_ < n) {
    // The buffer is as full as it gets: whatever an armed consumer still
    // needs, it can make progress now.
    ring_armed_locked();
    ++producers_waiting_;
    not_full_.wait(lock,
                   [&] { return closed_ || ring_.size() - count_ >= n; });
    --producers_waiting_;
  }
  if (closed_) return false;
  if (n == 0) return true;
  const std::size_t tail = (head_ + count_) % ring_.size();
  const std::size_t first = std::min(n, ring_.size() - tail);
  std::memcpy(ring_.data() + tail, block.data(), first);
  std::memcpy(ring_.data(), block.data() + first, n - first);
  count_ += n;
  if (count_ >= armed_want_) ring_armed_locked();
  return true;
}

std::size_t BlockChannel::try_take(std::span<std::uint8_t> out,
                                   Doorbell* doorbell) {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::size_t got = std::min(out.size(), count_);
  if (got > 0) {
    const std::size_t first = std::min(got, ring_.size() - head_);
    std::memcpy(out.data(), ring_.data() + head_, first);
    std::memcpy(out.data() + first, ring_.data(), got - first);
    head_ = (head_ + got) % ring_.size();
    count_ -= got;
  }
  if (got < out.size() && doorbell != nullptr && !closed_) {
    if (std::find(armed_.begin(), armed_.end(), doorbell) == armed_.end()) {
      armed_.push_back(doorbell);
    }
    armed_want_ = std::min(armed_want_, out.size() - got);
  }
  const bool wake = got > 0 && producers_waiting_ > 0;
  lock.unlock();
  if (wake) not_full_.notify_all();
  return got;
}

void BlockChannel::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    ring_armed_locked();
  }
  not_full_.notify_all();
}

void BlockChannel::ring_armed_locked() {
  for (Doorbell* doorbell : armed_) doorbell->ring();
  armed_.clear();
  armed_want_ = kNoWant;
}

}  // namespace dhtrng::core
