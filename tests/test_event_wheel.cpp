// Property test for the timing-wheel scheduler: drive EventQueue and a
// naive sorted-vector reference model through randomized push / cancel /
// pop / run_until interleavings and require identical pop order — including
// FIFO tie-breaks at equal timestamps. Horizons are drawn from every wheel
// level (the near ring, the three far wheels, and the overflow heap) and
// from the block edges, so re-files and page advances are exercised, and
// pushes use all three event kinds so the typed paths share the ordering
// proof. Some events cancel another live event while they run, so cancels
// also land inside run_top. Directed tests put the cursor in a page's last
// block and count the wheel's work for events within a block.
//
// The slab tests below pin the memory side: cancel frees a node at once,
// so the slab holds live events, not cancelled timers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace planck::sim {
namespace {

/// The reference model: a flat vector popped by linear scan for the
/// smallest (when, push-order). Obviously correct, O(n) per op.
class ReferenceQueue {
 public:
  std::uint64_t push(Time when, int tag) {
    if (when < floor_) when = floor_;  // same clamp as the wheel
    events_.push_back(Ref{when, next_order_++, tag, /*cancelled=*/false});
    return events_.back().order;
  }

  void cancel(std::uint64_t order) {
    for (Ref& r : events_) {
      if (r.order == order) r.cancelled = true;
    }
  }

  /// Order ids of the pending events at exactly `when`, in push order.
  std::vector<std::uint64_t> pending_at(Time when) const {
    std::vector<std::uint64_t> out;
    for (const Ref& r : events_) {
      if (!r.cancelled && r.when == when) out.push_back(r.order);
    }
    return out;
  }

  /// Order ids of every pending event, in push order.
  std::vector<std::uint64_t> pending() const {
    std::vector<std::uint64_t> out;
    for (const Ref& r : events_) {
      if (!r.cancelled) out.push_back(r.order);
    }
    return out;
  }

  bool empty() const {
    return std::none_of(events_.begin(), events_.end(),
                        [](const Ref& r) { return !r.cancelled; });
  }

  Time next_time() {
    const Ref* best = find_min();
    return best->when;
  }

  /// Pops the earliest live event; returns its (when, tag).
  std::pair<Time, int> pop() {
    Ref* best = find_min();
    const std::pair<Time, int> out{best->when, best->tag};
    floor_ = best->when;
    best->cancelled = true;  // consumed
    return out;
  }

  void set_floor(Time t) {
    if (t > floor_) floor_ = t;
  }

 private:
  struct Ref {
    Time when;
    std::uint64_t order;
    int tag;
    bool cancelled;
  };

  Ref* find_min() {
    Ref* best = nullptr;
    for (Ref& r : events_) {
      if (r.cancelled) continue;
      if (best == nullptr || r.when < best->when ||
          (r.when == best->when && r.order < best->order)) {
        best = &r;
      }
    }
    return best;
  }

  std::vector<Ref> events_;
  std::uint64_t next_order_ = 1;
  Time floor_ = 0;
};

/// One offset drawn from a horizon class chosen to hit a specific wheel
/// level: same-tick, near ring, each far wheel, and the overflow heap; and
/// the block edges, one block (8,192 ns) and two blocks from the cursor,
/// where the near ring's two blocks end.
Duration random_offset(Rng& rng) {
  switch (rng.below(11)) {
    case 0: return 0;                                            // same ns
    case 1: return static_cast<Duration>(rng.below(8192));       // near
    case 2: return static_cast<Duration>(rng.below(1u << 21));   // level 1
    case 3: return static_cast<Duration>(rng.below(1u << 29));   // level 2
    case 4: return static_cast<Duration>(rng.below(1ull << 37)); // level 3
    case 5: return static_cast<Duration>(rng.below(1ull << 40)); // overflow
    case 6: return 8191;
    case 7: return 8192;
    case 8: return 8193;
    case 9: return 16383;
    default: return 16384;
  }
}

void run_property_trial(std::uint64_t seed, int ops) {
  EventQueue wheel;
  ReferenceQueue model;
  Rng rng(seed);

  Time now = 0;
  int next_tag = 0;
  std::vector<int> wheel_tags;  // filled by executed events
  std::vector<std::pair<EventId, std::uint64_t>> live;  // (wheel id, model id)
  std::vector<EventId> wheel_id_of;  // indexed by model id
  std::vector<bool> cancels_on_run;  // indexed by tag

  // Every event kind funnels into on_run(tag) when it executes. One push in
  // eight cancels another live event from inside run_top: the next event in
  // its own slot (same nanosecond) when there is one, else any live event.
  // pop_one pops the model first, so `pending` here excludes the runner.
  std::function<void(int)> on_run = [&](int tag) {
    wheel_tags.push_back(tag);
    if (!cancels_on_run[static_cast<std::size_t>(tag)]) return;
    std::vector<std::uint64_t> victims = model.pending_at(now);
    if (victims.empty()) {
      victims = model.pending();
      if (victims.empty()) return;
      std::swap(victims.front(), victims[rng.below(victims.size())]);
    }
    wheel.cancel(wheel_id_of[victims.front()]);
    model.cancel(victims.front());
  };

  net::Packet pkt;
  pkt.payload = 64;
  const auto call_fn = [](void* target, std::uint32_t aux) {
    (*static_cast<std::function<void(int)>*>(target))(static_cast<int>(aux));
  };
  const auto packet_fn = [](void* target, std::uint32_t aux,
                            const net::Packet&) {
    (*static_cast<std::function<void(int)>*>(target))(static_cast<int>(aux));
  };

  const auto push_one = [&] {
    const Time when = now + random_offset(rng);
    const int tag = next_tag++;
    cancels_on_run.push_back(rng.below(8) == 0);
    EventId id = 0;
    switch (rng.below(3)) {
      case 0:
        id = wheel.push(when, [&on_run, tag] { on_run(tag); });
        break;
      case 1:
        id = wheel.push_call(when, &on_run, static_cast<std::uint32_t>(tag),
                             call_fn);
        break;
      default:
        id = wheel.push_packet(when, &on_run,
                               static_cast<std::uint32_t>(tag), packet_fn,
                               pkt);
        break;
    }
    const std::uint64_t model_id = model.push(when, tag);
    wheel_id_of.resize(model_id + 1);
    wheel_id_of[model_id] = id;
    live.emplace_back(id, model_id);
  };

  const auto pop_one = [&] {
    ASSERT_FALSE(wheel.empty());
    ASSERT_FALSE(model.empty());
    ASSERT_EQ(wheel.next_time(), model.next_time());
    const std::size_t before = wheel_tags.size();
    const auto [ref_when, ref_tag] = model.pop();
    now = ref_when;
    Time when = 0;
    wheel.run_top(&when);
    ASSERT_EQ(when, ref_when);
    ASSERT_EQ(wheel_tags.size(), before + 1);
    ASSERT_EQ(wheel_tags.back(), ref_tag);
    ASSERT_EQ(wheel.size(), model.pending().size());
  };

  for (int op = 0; op < ops; ++op) {
    if (::testing::Test::HasFatalFailure()) return;
    const std::uint64_t r = rng.below(100);
    if (r < 55) {
      push_one();
    } else if (r < 70 && !live.empty()) {
      // Cancel a random id — possibly one that already fired, which must be
      // a safe no-op on the wheel and is modeled as cancel-of-consumed.
      const std::size_t pick = rng.below(live.size());
      wheel.cancel(live[pick].first);
      model.cancel(live[pick].second);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (r < 90) {
      if (!wheel.empty()) pop_one();
      ASSERT_EQ(wheel.empty(), model.empty());
    } else {
      // run_until: drain everything up to a deadline, then advance the
      // clock floor past it (subsequent pushes clamp identically).
      const Time deadline = now + static_cast<Duration>(rng.below(1u << 22));
      while (!wheel.empty() && wheel.next_time() <= deadline) {
        pop_one();
        if (::testing::Test::HasFatalFailure()) return;
      }
      ASSERT_EQ(wheel.empty(), model.empty());
      now = deadline;
      model.set_floor(deadline);
    }
  }
  // Drain to the end: the full remaining order must match.
  while (!wheel.empty()) {
    pop_one();
    if (::testing::Test::HasFatalFailure()) return;
  }
  ASSERT_TRUE(model.empty());
  ASSERT_EQ(wheel.size(), 0u);
}

class EventWheelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventWheelProperty, MatchesReferenceModel) {
  run_property_trial(GetParam(), /*ops=*/4000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventWheelProperty,
                         ::testing::Values(1u, 42u, 20260805u));

// A directed FIFO burst: many events on one nanosecond, across kinds and
// cascade boundaries, must drain in exact push order.
TEST(EventWheelProperty, MassiveTieBreakIsFifo) {
  EventQueue q;
  std::vector<int> order;
  const Time when = milliseconds(3);  // lands in a far wheel, cascades down
  const auto call_fn = [](void* target, std::uint32_t aux) {
    static_cast<std::vector<int>*>(target)->push_back(static_cast<int>(aux));
  };
  for (int i = 0; i < 5000; ++i) {
    if (i % 2 == 0) {
      q.push_call(when, &order, static_cast<std::uint32_t>(i), call_fn);
    } else {
      q.push(when, [&order, i] { order.push_back(i); });
    }
  }
  while (!q.empty()) q.run_top();
  ASSERT_EQ(order.size(), 5000u);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

// The cursor in the last block of an L1, an L2 and an L3 page (the 2^21,
// 2^29 and 2^37 ns boundaries): the near ring's next block lies in the
// next page, so entering the last block re-files a far slot of the level
// above (or the overflow), and entering the next page re-files the rest.
// Events filed from a cursor at 0, and then by the event that moves the
// cursor into the last block, while it runs, into the next block and
// beyond, pop in the reference model's order, equal times in push order.
TEST(EventWheelEdges, CursorInTheLastBlockOfAPage) {
  struct Run {
    EventQueue q;
    ReferenceQueue model;
    std::vector<int> popped;
    int next_tag = 0;
    std::vector<Time> on_first_run;  // pushed by the first event to run

    void push(Time when) {
      const int tag = next_tag++;
      q.push_call(when, this, static_cast<std::uint32_t>(tag), &Run::fire);
      model.push(when, tag);
    }
    static void fire(void* target, std::uint32_t tag) {
      auto& run = *static_cast<Run*>(target);
      run.popped.push_back(static_cast<int>(tag));
      for (const Time when : std::exchange(run.on_first_run, {})) {
        run.push(when);
      }
    }
  };
  for (const int bits : {21, 29, 37}) {
    SCOPED_TRACE(bits);
    const Time page = Time{1} << bits;
    const Time entry = page - 8192 + 3;  // in the page's last block
    const std::vector<Time> times = {entry,
                                     page - 1,
                                     page,
                                     page + 1,
                                     page + 8191,
                                     page + 8192,
                                     page + 16384,
                                     page + (Time{1} << 21),
                                     2 * page - 1,
                                     2 * page,
                                     2 * page + 8192};
    Run run;
    // Filed from a cursor at 0: far wheels and the overflow, twice each
    // so equal times test FIFO.
    for (int round = 0; round < 2; ++round) {
      for (const Time when : times) run.push(when);
    }
    // The event at `entry` runs first. It pushes every time once more,
    // after the two copies filed far, and then the block edges from its
    // own time: the rest of its block, the next block (the next page),
    // two blocks on and further.
    run.on_first_run = times;
    for (const Duration offset :
         {Duration{0}, Duration{8188}, Duration{8189}, Duration{8191},
          Duration{8192}, Duration{8193}, Duration{16383}, Duration{16384},
          Duration{16385}, Duration{1} << 21, page, page + 8189}) {
      run.on_first_run.push_back(entry + offset);
    }
    while (!run.q.empty()) {
      ASSERT_EQ(run.q.next_time(), run.model.next_time());
      const auto [ref_when, ref_tag] = run.model.pop();
      Time when = 0;
      run.q.run_top(&when);
      ASSERT_EQ(when, ref_when);
      ASSERT_EQ(run.popped.back(), ref_tag);
    }
    ASSERT_TRUE(run.model.empty());
    ASSERT_EQ(run.popped.size(), 3 * times.size() + 12);
  }
}

// Delays of at most one block (8,192 ns) file every event in the near
// ring, which holds the cursor's block and the next: under churn with
// cancels, no event is ever filed far, re-filed or walked by a peek.
TEST(EventWheel, EventsWithinABlockAreFiledOnce) {
  EventQueue q;
  Rng rng(5);
  std::uint64_t fired = 0;
  const auto call_fn = [](void* target, std::uint32_t) {
    ++*static_cast<std::uint64_t*>(target);
  };
  std::vector<EventId> ids;
  for (int i = 0; i < 512; ++i) {
    ids.push_back(q.push_call(static_cast<Time>(rng.below(8193)), &fired, 0,
                              call_fn));
  }
  Time t = 0;
  for (int i = 0; i < 200000; ++i) {
    q.run_top(&t);
    const EventId id =
        q.push_call(t + static_cast<Duration>(rng.below(8193)), &fired, 0,
                    call_fn);
    if (rng.below(4) == 0) {
      q.cancel(ids[rng.below(ids.size())]);  // often already fired
      q.push_call(t + static_cast<Duration>(rng.below(8193)), &fired, 0,
                  call_fn);
    }
    ids[rng.below(ids.size())] = id;
  }
  EXPECT_EQ(fired, 200000u);
  EXPECT_EQ(q.wheel_work().far_files, 0u);
  EXPECT_EQ(q.wheel_work().refiles, 0u);
  EXPECT_EQ(q.wheel_work().peek_walked, 0u);
}

// A TCP receiver cancels and re-arms its 40 ms delayed-ACK timer on every
// ACK. Cancel frees the node at once, so 100k such rounds beside a 5 us
// periodic event leave the slab at the live high-water plus the one node
// executing, not at one node per cancelled timer still 40 ms out.
TEST(EventWheelSlab, CancelledTimersDoNotAccumulate) {
  constexpr int kRounds = 100000;
  EventQueue q;
  EventId timer = 0;
  int rounds = 0;
  int timer_fires = 0;
  std::size_t live_hwm = 0;
  std::function<void(Time)> tick = [&](Time now) {
    q.cancel(timer);
    timer = q.push(now + milliseconds(40), [&timer_fires] { ++timer_fires; });
    live_hwm = std::max(live_hwm, q.size());
    if (++rounds == kRounds) return;
    const Time next = now + microseconds(5);
    q.push(next, [&tick, next] { tick(next); });
    live_hwm = std::max(live_hwm, q.size());
  };
  q.push(0, [&tick] { tick(0); });
  while (!q.empty()) q.run_top();
  EXPECT_EQ(rounds, kRounds);
  EXPECT_EQ(timer_fires, 1);  // only the last arm outlives its round
  EXPECT_EQ(live_hwm, 2u);
  EXPECT_EQ(q.slab_nodes(), live_hwm + 1);
}

// At the near wheel and at each far wheel, push -> cancel -> push reuses the
// cancelled node. The stale id stays a no-op although its node now holds
// the new event, and the new event fires.
TEST(EventWheelSlab, CancelReusesTheNodeAtEveryWheelLevel) {
  // From a cursor at 0: the near wheel, then the far wheels of 8.192 us,
  // ~2.1 ms and ~537 ms slots, then the overflow past ~137 s.
  for (const Duration offset : {nanoseconds(100), microseconds(100),
                                milliseconds(10), seconds(1), seconds(200)}) {
    SCOPED_TRACE(offset);
    EventQueue q;
    bool stale_fired = false;
    bool fresh_fired = false;
    const EventId stale =
        q.push(offset, [&stale_fired] { stale_fired = true; });
    q.cancel(stale);
    q.push(offset, [&fresh_fired] { fresh_fired = true; });
    EXPECT_EQ(q.slab_nodes(), 1u);
    q.cancel(stale);
    ASSERT_EQ(q.size(), 1u);
    Time when = 0;
    q.run_top(&when);
    EXPECT_EQ(when, offset);
    EXPECT_FALSE(stale_fired);
    EXPECT_TRUE(fresh_fired);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.slab_nodes(), 1u);
  }
}

}  // namespace
}  // namespace planck::sim
