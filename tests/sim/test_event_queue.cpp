// Unit tests for the sorted-run event queue: pop order equals the
// (time, seq) total order for any push/cancel/pop interleaving, ties break
// by seq even when seqs arrive scrambled, pop_if_due honours its horizon,
// and the popped prefix is reclaimed so storage tracks the pending count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/event_queue.h"
#include "support/rng.h"

namespace dhtrng::sim {
namespace {

constexpr double kForever = std::numeric_limits<double>::infinity();

std::vector<SimEvent> drain(SortedEventRun& q) {
  std::vector<SimEvent> out;
  SimEvent ev;
  while (q.pop_if_due(kForever, ev)) out.push_back(ev);
  EXPECT_TRUE(q.empty());
  return out;
}

void expect_sorted(const std::vector<SimEvent>& evs) {
  for (std::size_t i = 1; i < evs.size(); ++i) {
    const bool ok = evs[i - 1].time < evs[i].time ||
                    (evs[i - 1].time == evs[i].time &&
                     evs[i - 1].seq < evs[i].seq);
    ASSERT_TRUE(ok) << "pop order violated at " << i << ": (" << evs[i - 1].time
                    << "," << evs[i - 1].seq << ") before (" << evs[i].time
                    << "," << evs[i].seq << ")";
  }
}

TEST(SortedEventRun, PopsInTimeOrder) {
  SortedEventRun q;
  support::Xoshiro256 rng(1);
  for (std::uint64_t s = 0; s < 500; ++s) {
    q.push(rng.uniform(0.0, 5000.0), s, static_cast<NetId>(s % 7), s % 2 == 0);
  }
  auto evs = drain(q);
  ASSERT_EQ(evs.size(), 500u);
  expect_sorted(evs);
}

TEST(SortedEventRun, EqualTimesBreakTiesBySeq) {
  SortedEventRun q;
  // Push equal-time events in scrambled seq order.
  const std::uint64_t seqs[] = {5, 1, 9, 3, 7, 2, 8, 4, 6, 0};
  for (std::uint64_t s : seqs) q.push(123.0, s, 0, false);
  auto evs = drain(q);
  ASSERT_EQ(evs.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(evs[i].seq, i);
}

TEST(SortedEventRun, MatchesHeapSemanticsUnderRandomWorkload) {
  // Oracle: sort the surviving (time, seq) pairs; the queue must pop the
  // same sequence through an interleaved push/pop/cancel workload.
  for (std::uint64_t seed : {7u, 19u, 42u}) {
    SortedEventRun q;
    support::Xoshiro256 rng(seed);
    std::vector<SimEvent> expected;
    std::uint64_t seq = 0;
    double now = 0.0;
    std::vector<SimEvent> popped;
    for (int step = 0; step < 4000; ++step) {
      const double r = rng.uniform();
      if (r < 0.55 || q.empty()) {
        const double t = now + rng.uniform(0.0, 400.0);
        const NetId net = static_cast<NetId>(rng.below(11));
        const bool val = rng.below(2) == 1;
        q.push(t, seq, net, val);
        expected.push_back({t, seq, net, val});
        ++seq;
      } else if (r < 0.85) {
        SimEvent ev;
        ASSERT_TRUE(q.pop_if_due(kForever, ev));
        EXPECT_GE(ev.time, now);
        now = ev.time;
        popped.push_back(ev);
      } else if (!expected.empty()) {
        // Cancel a random still-pending event (ignore already-popped).
        const std::size_t pick = rng.below(expected.size());
        const std::uint64_t victim = expected[pick].seq;
        const bool already_popped =
            std::any_of(popped.begin(), popped.end(),
                        [&](const SimEvent& e) { return e.seq == victim; });
        if (!already_popped) {
          q.cancel(expected[pick].time, victim);
          expected.erase(expected.begin() + static_cast<std::ptrdiff_t>(pick));
        }
      }
    }
    auto rest = drain(q);
    popped.insert(popped.end(), rest.begin(), rest.end());
    std::sort(expected.begin(), expected.end(),
              [](const SimEvent& a, const SimEvent& b) {
                return a.time != b.time ? a.time < b.time : a.seq < b.seq;
              });
    ASSERT_EQ(popped.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < popped.size(); ++i) {
      ASSERT_TRUE(popped[i] == expected[i]) << "seed " << seed << " pos " << i;
    }
  }
}

TEST(SortedEventRun, CancelMinimumPromotesNext) {
  SortedEventRun q;
  q.push(5.0, 0, 1, true);
  q.push(9.0, 1, 2, false);
  q.cancel(5.0, 0);
  auto evs = drain(q);
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].net, 2u);
  EXPECT_EQ(evs[0].time, 9.0);
}

TEST(SortedEventRun, CancelNonMinimumKeepsMinimum) {
  SortedEventRun q;
  q.push(5.0, 0, 1, true);
  q.push(9.0, 1, 2, false);
  q.cancel(9.0, 1);
  EXPECT_EQ(q.live(), 1u);
  auto evs = drain(q);
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].net, 1u);
  // Cancelling an event that already popped is a no-op.
  q.push(12.0, 2, 3, true);
  q.cancel(5.0, 0);
  EXPECT_EQ(q.live(), 1u);
}

TEST(SortedEventRun, DistantEventsPopInOrder) {
  SortedEventRun q;
  q.push(5.0e7, 0, 3, true);
  q.push(9.0e7, 1, 4, false);
  auto evs = drain(q);
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].time, 5.0e7);
  EXPECT_EQ(evs[0].net, 3u);
  EXPECT_EQ(evs[1].net, 4u);
}

TEST(SortedEventRun, ManyPendingEventsKeepOrder) {
  SortedEventRun q;
  support::Xoshiro256 rng(3);
  for (std::uint64_t s = 0; s < 2000; ++s) {
    q.push(rng.uniform(0.0, 1000.0), s, 0, false);
  }
  auto evs = drain(q);
  ASSERT_EQ(evs.size(), 2000u);
  expect_sorted(evs);
}

TEST(SortedEventRun, SteadyPushPopKeepsOrder) {
  // 64 pending events, each pop followed by a push a little ahead of now:
  // the simulator's traffic shape.
  SortedEventRun q;
  support::Xoshiro256 rng(11);
  std::uint64_t seq = 0;
  for (int i = 0; i < 64; ++i) q.push(rng.uniform(0.0, 100.0), seq++, 0, false);
  double prev_t = -1.0;
  std::uint64_t prev_seq = 0;
  for (int i = 0; i < 20000; ++i) {
    SimEvent ev;
    ASSERT_TRUE(q.pop_if_due(kForever, ev));
    ASSERT_TRUE(ev.time > prev_t || (ev.time == prev_t && ev.seq > prev_seq));
    prev_t = ev.time;
    prev_seq = ev.seq;
    q.push(ev.time + rng.uniform(0.5, 3.0), seq++, 0, false);
  }
  EXPECT_EQ(q.live(), 64u);
}

TEST(SortedEventRun, DrainedQueueStoresNothing) {
  SortedEventRun q;
  for (int round = 0; round < 100; ++round) {
    for (std::uint64_t s = 0; s < 8; ++s) {
      q.push(round * 100.0 + static_cast<double>(s), s, 0, false);
    }
    drain(q);
  }
  EXPECT_EQ(q.stored(), 0u);
}

// Pushes landing between pending events and a cancel of the minimum, all
// within a few picoseconds of each other: only pop order is observable.
TEST(SortedEventRun, InsertsAndCancelBetweenPendingKeepOrder) {
  SortedEventRun q;
  q.push(10.0, 0, 0, false);
  q.push(20.0, 1, 0, false);
  q.push(30.0, 2, 0, false);
  q.push(15.0, 3, 0, false);  // between the first two
  q.push(5.0, 4, 0, false);   // a new minimum
  q.cancel(5.0, 4);           // cancelled again
  auto evs = drain(q);
  ASSERT_EQ(evs.size(), 4u);
  const double want[] = {10.0, 15.0, 20.0, 30.0};
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(evs[i].time, want[i]);
}

// pop_if_due must pop exactly the events at or before the horizon, in
// order, and leave the rest.
TEST(SortedEventRun, PopIfDueStopsAtHorizon) {
  SortedEventRun q;
  support::Xoshiro256 rng(7);
  for (std::uint64_t s = 0; s < 300; ++s) {
    q.push(rng.uniform(0.0, 1000.0), s, 0, false);
  }
  std::vector<SimEvent> due;
  SimEvent ev;
  while (q.pop_if_due(500.0, ev)) due.push_back(ev);
  expect_sorted(due);
  for (const SimEvent& e : due) EXPECT_LE(e.time, 500.0);
  ASSERT_FALSE(q.empty());
  auto rest = drain(q);
  EXPECT_GT(rest.front().time, 500.0);
  expect_sorted(rest);
  EXPECT_EQ(due.size() + rest.size(), 300u);
}

// The popped prefix is compacted away: under steady traffic the vector
// holds at most twice the pending events plus a constant, however long
// the run.
TEST(SortedEventRun, StorageStaysBoundedUnderSteadyTraffic) {
  SortedEventRun q;
  support::Xoshiro256 rng(5);
  std::uint64_t seq = 0;
  for (int i = 0; i < 100; ++i) q.push(rng.uniform(0.0, 50.0), seq++, 0, false);
  std::size_t worst = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    SimEvent ev;
    ASSERT_TRUE(q.pop_if_due(kForever, ev));
    // Hover around 100 pending: occasionally push two or none.
    const std::uint64_t pushes = q.live() < 100 ? 1 + rng.below(2)
                                                : rng.below(2);
    for (std::uint64_t p = 0; p < pushes; ++p) {
      q.push(ev.time + rng.uniform(0.5, 50.0), seq++, 0, false);
    }
    ASSERT_LE(q.stored(), 2 * q.live() + 64) << "after " << i << " cycles";
    worst = std::max(worst, q.stored());
  }
  EXPECT_LE(worst, 2 * 110 + 64);
}

}  // namespace
}  // namespace dhtrng::sim
