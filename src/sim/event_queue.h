// Sorted-run event queue.
//
// The simulator's schedule is a strict total order on (time, seq): events
// pop in nondecreasing time, ties broken by insertion sequence number.  The
// queue keeps its pending events in one contiguous vector in exactly that
// order, so the minimum is always the entry under a head cursor:
//
//   * pop advances the cursor;
//   * push inserts by scanning from the back (the simulator schedules a
//     gate delay or so ahead of now, so a new event lands near the tail:
//     the average insert on the DH-TRNG netlist moves ~4 entries);
//   * cancel (inertial runt swallowing) finds its victim from the back and
//     erases it;
//   * the popped prefix is dropped once it outgrows the live tail, so
//     storage stays within 2x the pending count plus a constant.
//
// Every shipped gate netlist keeps at most a few hundred events pending
// (docs/architecture.md has the measured table), a size at which the
// shifting insert beats any bucketed or heap-ordered structure.  Pop order
// is the (time, seq) order itself, so it matches the reference binary heap
// event for event — which the differential fuzz tests assert.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/circuit.h"

namespace dhtrng::sim {

/// A scheduled net transition, as observed by the differential tests.
struct SimEvent {
  double time;
  std::uint64_t seq;
  NetId net;
  bool value;
};

inline bool operator==(const SimEvent& a, const SimEvent& b) {
  return a.time == b.time && a.seq == b.seq && a.net == b.net &&
         a.value == b.value;
}

class SortedEventRun {
 public:
  bool empty() const { return head_ == tail_; }
  std::size_t live() const { return tail_ - head_; }
  /// Entries held, popped prefix included (the storage-bound observable).
  std::size_t stored() const { return tail_; }

  void push(double time, std::uint64_t seq, NetId net, bool value) {
    if (tail_ == run_.size()) make_room();
    const SimEvent* const first = run_.data() + head_;
    SimEvent* p = run_.data() + tail_++;
    // Shift later events up one slot: first by time, then, among equal
    // times, by seq.
    while (p > first && time < p[-1].time) {
      *p = p[-1];
      --p;
    }
    while (p > first && time == p[-1].time && seq < p[-1].seq) {
      *p = p[-1];
      --p;
    }
    *p = SimEvent{time, seq, net, value};
  }

  /// Remove the still-queued event pushed as (time, seq); a no-op when it
  /// has already popped or was never pushed.
  void cancel(double time, std::uint64_t seq) {
    for (std::size_t i = tail_; i > head_; --i) {
      const SimEvent& e = run_[i - 1];
      if (e.seq == seq && e.time == time) {
        std::copy(run_.begin() + static_cast<std::ptrdiff_t>(i),
                  run_.begin() + static_cast<std::ptrdiff_t>(tail_),
                  run_.begin() + static_cast<std::ptrdiff_t>(i - 1));
        --tail_;
        return;
      }
      // Everything from here down orders before (time, seq).
      if (e.time < time || (e.time == time && e.seq < seq)) return;
    }
  }

  /// Pop the earliest event into `out` iff its time is <= `t_ps`.
  bool pop_if_due(double t_ps, SimEvent& out) {
    if (head_ == tail_ || run_[head_].time > t_ps) return false;
    out = run_[head_++];
    if (head_ == tail_) {
      head_ = tail_ = 0;
    } else if (head_ > kSlack && head_ > tail_ - head_) {
      compact();
    }
    return true;
  }

 private:
  /// Popped entries tolerated before compaction is considered.
  static constexpr std::size_t kSlack = 64;

  /// Slide the pending events to the front of the buffer.
  void compact() {
    std::copy(run_.begin() + static_cast<std::ptrdiff_t>(head_),
              run_.begin() + static_cast<std::ptrdiff_t>(tail_),
              run_.begin());
    tail_ -= head_;
    head_ = 0;
  }

  /// The buffer is full up to its end: reclaim the popped prefix, or grow.
  void make_room() {
    if (head_ > 0) {
      compact();
    } else {
      run_.resize(run_.empty() ? kSlack : 2 * run_.size());
    }
  }

  // The buffer's size is its capacity: run_[head_, tail_) are the pending
  // events in (time, seq) order, run_[0, head_) already popped.
  std::vector<SimEvent> run_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

}  // namespace dhtrng::sim
