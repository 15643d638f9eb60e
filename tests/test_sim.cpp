// Tests for the simulation substrate: event queue ordering and
// cancellation, the simulation driver, timers, and the deterministic PRNG.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "sim/contract.hpp"
#include "sim/event_queue.hpp"
#include "sim/frame_queue.hpp"
#include "sim/parallel.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "sim/timer.hpp"

namespace planck::sim {
namespace {

// ---------------------------------------------------------------------------
// Time helpers
// ---------------------------------------------------------------------------

TEST(Time, UnitConstructors) {
  EXPECT_EQ(microseconds(1), 1'000);
  EXPECT_EQ(milliseconds(1), 1'000'000);
  EXPECT_EQ(seconds(1), 1'000'000'000);
  EXPECT_EQ(milliseconds(3) + microseconds(500), 3'500'000);
}

TEST(Time, Conversions) {
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2)), 2.0);
  EXPECT_DOUBLE_EQ(to_milliseconds(microseconds(1500)), 1.5);
  EXPECT_DOUBLE_EQ(to_microseconds(nanoseconds(500)), 0.5);
}

TEST(Time, SerializationDelayRoundsUp) {
  // 1538 bytes at 10 Gbps = 1230.4 ns -> 1231 ns.
  EXPECT_EQ(serialization_delay(1538, 10'000'000'000), 1231);
  // 1 byte at 1 Gbps = 8 ns exactly.
  EXPECT_EQ(serialization_delay(1, 1'000'000'000), 8);
  EXPECT_EQ(serialization_delay(0, 1'000'000'000), 0);
  EXPECT_EQ(serialization_delay(100, 0), 0);
}

TEST(Time, BytesInInterval) {
  EXPECT_EQ(bytes_in(seconds(1), 8'000), 1000);
  EXPECT_EQ(bytes_in(microseconds(1), 10'000'000'000), 1250);
  EXPECT_EQ(bytes_in(-5, 10'000'000'000), 0);
}

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.run_top();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_top();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, ReportsPopTime) {
  EventQueue q;
  q.push(123, [] {});
  Time when = 0;
  q.run_top(&when);
  EXPECT_EQ(when, 123);
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  int ran = 0;
  q.push(1, [&] { ++ran; });
  const EventId id = q.push(2, [&] { ran += 100; });
  q.push(3, [&] { ++ran; });
  q.cancel(id);
  while (!q.empty()) q.run_top();
  EXPECT_EQ(ran, 2);
}

TEST(EventQueue, CancelFirstEventAdvancesNextTime) {
  EventQueue q;
  const EventId id = q.push(1, [] {});
  q.push(2, [] {});
  q.cancel(id);
  EXPECT_EQ(q.next_time(), 2);
}

TEST(EventQueue, CancelAllLeavesEmpty) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(q.push(i, [] {}));
  for (EventId id : ids) q.cancel(id);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, InvalidCancelIsIgnored) {
  EventQueue q;
  q.cancel(0);
  q.cancel(999999);
  q.push(1, [] {});
  EXPECT_FALSE(q.empty());
}

TEST(EventQueue, CancelAfterFireIsSafeNoOp) {
  // Generation-tagged ids: cancelling an id whose event already executed
  // must not disturb anything — including an unrelated event that now
  // occupies the recycled slab slot.
  EventQueue q;
  int ran = 0;
  const EventId first = q.push(1, [&] { ++ran; });
  q.run_top();
  EXPECT_EQ(ran, 1);
  const EventId second = q.push(2, [&] { ran += 10; });  // reuses the slot
  q.cancel(first);   // stale id: no-op, must not kill `second`
  q.cancel(first);   // idempotent
  ASSERT_FALSE(q.empty());
  q.run_top();
  EXPECT_EQ(ran, 11);
  q.cancel(second);  // also already fired: no-op
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelledCallbackIsDestroyedPromptly) {
  // A closure that captures a Packet is too big for std::function's local
  // buffer, so it lives on the heap, owned by its slab node.
  auto token = std::make_shared<int>(5);
  const std::weak_ptr<int> weak = token;
  auto closure = [token, pkt = net::Packet{}] {
    (void)*token;
    (void)pkt;
  };
  static_assert(sizeof(closure) > sizeof(EventQueue::Callback));
  EventQueue q;
  const EventId id = q.push(100, std::move(closure));
  token.reset();
  EXPECT_FALSE(weak.expired());
  q.cancel(id);
  EXPECT_TRUE(weak.expired());  // captured state released at cancel time
}

TEST(EventQueue, CallbackStateIsReleasedAfterRunAndByDestructor) {
  // The first closure (it captures a Packet) is heap-stored; the second, a
  // lone shared_ptr, fits libstdc++'s std::function local buffer. The
  // queue releases either one's captures right after it runs, or in
  // ~EventQueue if it never ran.
  auto ran_token = std::make_shared<int>(1);
  auto pending_token = std::make_shared<int>(1);
  const std::weak_ptr<int> ran_weak = ran_token;
  const std::weak_ptr<int> pending_weak = pending_token;
  int runs = 0;
  auto ran = [token = std::move(ran_token), pkt = net::Packet{}, &runs] {
    (void)pkt;
    runs += *token;
  };
  auto pending = [token = std::move(pending_token)] { (void)*token; };
  static_assert(sizeof(ran) > sizeof(EventQueue::Callback));
  {
    EventQueue q;
    q.push(100, std::move(ran));
    q.push(200, std::move(pending));
    EXPECT_FALSE(ran_weak.expired());
    q.run_top();
    EXPECT_EQ(runs, 1);
    EXPECT_TRUE(ran_weak.expired());  // released right after it ran
    EXPECT_EQ(q.size(), 1u);
    EXPECT_FALSE(pending_weak.expired());
  }
  EXPECT_TRUE(pending_weak.expired());  // released by ~EventQueue
}

TEST(EventQueue, LargeCaptureCallbackRunsFromTheHeap) {
  // A 256-byte capture is far past std::function's local buffer. Its heap
  // copy keeps its contents wherever the event is filed (the near ring,
  // the far ring a few and ~95,000 rounds ahead) and through a
  // cross-partition post, which moves the callback into a mailbox and then
  // into the destination wheel.
  struct Big {
    char data[256] = {};
  };
  Big big;
  big.data[0] = 7;
  big.data[255] = 9;
  std::vector<int> seen;
  const auto closure = [big, &seen] {
    seen.push_back(big.data[0] + big.data[255]);
  };
  static_assert(sizeof(closure) > sizeof(EventQueue::Callback));
  EventQueue q;
  for (const Time t : {Time{3}, milliseconds(7), seconds(200)}) {
    q.push(t, closure);
  }
  while (!q.empty()) q.run_top();
  EXPECT_EQ(seen, (std::vector<int>{16, 16, 16}));

  seen.clear();
  ParallelEngine engine(2, microseconds(1), 1);
  Simulation& src = engine.partition(0);
  Simulation& dst = engine.partition(1);
  src.schedule(microseconds(5), [&] {
    for (int i = 0; i < 3; ++i) src.post(dst, src.cross_lookahead(), closure);
  });
  engine.run_until(microseconds(20));
  EXPECT_EQ(seen, (std::vector<int>{16, 16, 16}));
}

TEST(EventQueue, TypedEventsInterleaveFifoWithCallbacks) {
  // All three event kinds share one (time, push-order) ordering.
  EventQueue q;
  std::vector<int> order;
  const auto call_fn = [](void* target, std::uint32_t aux) {
    static_cast<std::vector<int>*>(target)->push_back(static_cast<int>(aux));
  };
  const auto packet_fn = [](void* target, std::uint32_t aux,
                            const net::Packet& pkt) {
    EXPECT_EQ(pkt.payload, 1460u);
    static_cast<std::vector<int>*>(target)->push_back(static_cast<int>(aux));
  };
  net::Packet pkt;
  pkt.payload = 1460;
  q.push(7, [&order] { order.push_back(0); });
  q.push_call(7, &order, 1, call_fn);
  q.push_packet(7, &order, 2, packet_fn, pkt);
  q.push(7, [&order] { order.push_back(3); });
  q.push_packet(5, &order, 4, packet_fn, pkt);
  while (!q.empty()) q.run_top();
  EXPECT_EQ(order, (std::vector<int>{4, 0, 1, 2, 3}));
}

TEST(EventQueue, TypedEventsAreCancellable) {
  EventQueue q;
  std::vector<int> order;
  const auto call_fn = [](void* target, std::uint32_t aux) {
    static_cast<std::vector<int>*>(target)->push_back(static_cast<int>(aux));
  };
  q.push_call(1, &order, 1, call_fn);
  const EventId id = q.push_call(2, &order, 2, call_fn);
  q.push_call(3, &order, 3, call_fn);
  q.cancel(id);
  while (!q.empty()) q.run_top();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, FarHorizonEventsPopInOrder) {
  // The near ring, this round of the far ring (256 blocks of 8,192 ns)
  // and rounds up to ~95,000 ahead: delays from a few ns to minutes,
  // pushed out of order.
  EventQueue q;
  std::vector<Time> popped;
  const Time horizons[] = {
      3,                       // near ring
      microseconds(50),        // far ring, this round
      milliseconds(7),         // 3 rounds ahead
      milliseconds(900),       // ~430 rounds ahead
      seconds(20),             // ~9,500 rounds ahead
      seconds(200),            // ~95,000 rounds ahead
      seconds(100) + 1,        // ~48,000 rounds ahead
      5,
      microseconds(50),        // FIFO tie in the far ring
  };
  for (const Time t : horizons) q.push(t, [] {});
  while (!q.empty()) {
    Time when = 0;
    q.run_top(&when);
    popped.push_back(when);
  }
  ASSERT_EQ(popped.size(), std::size(horizons));
  EXPECT_TRUE(std::is_sorted(popped.begin(), popped.end()));
  EXPECT_EQ(popped.front(), 3);
  EXPECT_EQ(popped.back(), seconds(200));
}

// Cancels in the near ring and in the far ring, this round (block 12)
// and 9, 953 and ~143,000 rounds on, each beside a survivor 1 ns later.
TEST(EventQueue, CancelAcrossRounds) {
  EventQueue q;
  int ran = 0;
  std::vector<EventId> doomed;
  for (const Time t : {Time{10}, microseconds(100), milliseconds(20),
                       seconds(2), seconds(300)}) {
    doomed.push_back(q.push(t, [&] { ran += 1000; }));
    q.push(t + 1, [&] { ++ran; });
  }
  for (const EventId id : doomed) q.cancel(id);
  while (!q.empty()) q.run_top();
  EXPECT_EQ(ran, 5);
}

TEST(EventQueue, ReentrantPushDuringExecution) {
  // An executing event scheduling more events must not invalidate the
  // in-place execution (the slab grows under it).
  EventQueue q;
  int total = 0;
  q.push(1, [&] {
    for (int i = 0; i < 2000; ++i) {
      q.push(2 + i, [&total] { ++total; });
    }
  });
  while (!q.empty()) q.run_top();
  EXPECT_EQ(total, 2000);
}

TEST(EventQueue, StressRandomOrderPopsSorted) {
  EventQueue q;
  Rng rng(99);
  std::vector<Time> popped;
  for (int i = 0; i < 2000; ++i) {
    q.push(static_cast<Time>(rng.below(10000)), [] {});
  }
  while (!q.empty()) {
    Time when = 0;
    q.run_top(&when);
    popped.push_back(when);
  }
  ASSERT_EQ(popped.size(), 2000u);
  EXPECT_TRUE(std::is_sorted(popped.begin(), popped.end()));
}

// ---------------------------------------------------------------------------
// Simulation
// ---------------------------------------------------------------------------

TEST(Simulation, ClockAdvancesWithEvents) {
  Simulation sim;
  Time seen = -1;
  sim.schedule(milliseconds(5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, milliseconds(5));
  EXPECT_EQ(sim.now(), milliseconds(5));
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation sim;
  std::vector<Time> times;
  sim.schedule(10, [&] {
    times.push_back(sim.now());
    sim.schedule(10, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<Time>{10, 20}));
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  int ran = 0;
  sim.schedule(10, [&] { ++ran; });
  sim.schedule(100, [&] { ++ran; });
  const bool more = sim.run_until(50);
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(more);
  EXPECT_EQ(sim.now(), 50);
  sim.run_until(200);
  EXPECT_EQ(ran, 2);
}

TEST(Simulation, StopAbortsRun) {
  Simulation sim;
  int ran = 0;
  sim.schedule(1, [&] {
    ++ran;
    sim.stop();
  });
  sim.schedule(2, [&] { ++ran; });
  sim.run();
  EXPECT_EQ(ran, 1);
  sim.run();  // resumes
  EXPECT_EQ(ran, 2);
}

TEST(Simulation, PastSchedulesClampToNow) {
  Simulation sim;
  sim.schedule(100, [&] {
    sim.schedule_at(5, [&] { EXPECT_EQ(sim.now(), 100); });
  });
  sim.run();
}

TEST(Simulation, CountsExecutedEvents) {
  Simulation sim;
  for (int i = 0; i < 7; ++i) sim.schedule(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulation, SlabNodesGaugeReadsTheEventSlab) {
  obs::Telemetry telemetry;
  Simulation sim;
  sim.set_telemetry(&telemetry);
  for (int i = 0; i < 7; ++i) sim.schedule(i, [] {});
  sim.run();
  EXPECT_EQ(sim.slab_nodes(), 7u);
  EXPECT_EQ(telemetry.metrics().gauge("sim", "slab_nodes").value(), 7.0);
  sim.set_telemetry(nullptr);
}

TEST(Simulation, CountsExecutedEventsByKind) {
  obs::Telemetry telemetry;
  Simulation sim;
  sim.set_telemetry(&telemetry);
  int calls = 0;
  for (int i = 0; i < 3; ++i) sim.schedule(i, [] {});
  for (int i = 0; i < 2; ++i) {
    sim.schedule_call(i, &calls, 0, [](void* n, std::uint32_t) {
      ++*static_cast<int*>(n);
    });
  }
  sim.schedule_packet(1, nullptr, 0,
                      [](void*, std::uint32_t, const net::Packet&) {},
                      net::Packet{});
  const EventId cancelled = sim.schedule(5, [] {});
  sim.cancel(cancelled);  // never executed, so never counted
  sim.run();
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(sim.events_by_kind().callbacks, 3u);
  EXPECT_EQ(sim.events_by_kind().calls, 2u);
  EXPECT_EQ(sim.events_by_kind().packets, 1u);
  obs::MetricRegistry& reg = telemetry.metrics();
  EXPECT_EQ(reg.gauge("sim", "callback_events").value(), 3.0);
  EXPECT_EQ(reg.gauge("sim", "call_events").value(), 2.0);
  EXPECT_EQ(reg.gauge("sim", "packet_events").value(), 1.0);
  EXPECT_EQ(reg.gauge("sim", "events_executed").value(), 6.0);
  sim.set_telemetry(nullptr);
}

TEST(Simulation, FrameBlocksGaugeReadsTheFramePool) {
  obs::Telemetry telemetry;
  Simulation sim;
  sim.set_telemetry(&telemetry);
  FrameQueue queue(sim.frame_pool());
  for (std::size_t i = 0; i < 2 * FramePool::kBlockFrames + 1; ++i) {
    queue.push_back(net::Packet{});
  }
  while (!queue.empty()) queue.pop_front();
  EXPECT_EQ(sim.frame_pool().blocks(), 3u);
  EXPECT_EQ(telemetry.metrics().gauge("sim", "frame_blocks").value(), 3.0);
  sim.set_telemetry(nullptr);
}

// ---------------------------------------------------------------------------
// FrameQueue
// ---------------------------------------------------------------------------

net::Packet frame(std::uint64_t seq) {
  net::Packet p;
  p.seq = seq;
  return p;
}

constexpr std::size_t kBlock = FramePool::kBlockFrames;

TEST(FrameQueue, FifoOrderAcrossBlockBoundaries) {
  FramePool pool;
  FrameQueue queue(pool);
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  // Pushes outrun pops, so the queue spans several blocks and both ends
  // cross block boundaries at different offsets.
  for (int round = 0; round < 5 * static_cast<int>(kBlock); ++round) {
    queue.push_back(frame(pushed++));
    queue.push_back(frame(pushed++));
    ASSERT_EQ(queue.front().seq, popped);
    queue.pop_front();
    ++popped;
  }
  EXPECT_EQ(queue.size(), pushed - popped);
  FrameQueue moved(std::move(queue));
  EXPECT_TRUE(queue.empty());  // NOLINT(bugprone-use-after-move)
  while (!moved.empty()) {
    ASSERT_EQ(moved.front().seq, popped++);
    moved.pop_front();
  }
  EXPECT_EQ(popped, pushed);
}

TEST(FrameQueue, ClearDropsEveryFrame) {
  FramePool pool;
  FrameQueue queue(pool);
  queue.clear();  // an empty queue: a no-op
  EXPECT_TRUE(queue.empty());
  for (std::uint64_t i = 0; i < 3 * kBlock + 2; ++i) queue.push_back(frame(i));
  for (std::size_t i = 0; i < kBlock + 3; ++i) queue.pop_front();
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  // The queue starts afresh: pushes fill a new head block.
  for (std::uint64_t i = 100; i < 100 + kBlock + 1; ++i) {
    queue.push_back(frame(i));
  }
  for (std::uint64_t i = 100; i < 100 + kBlock + 1; ++i) {
    ASSERT_EQ(queue.front().seq, i);
    queue.pop_front();
  }
  EXPECT_TRUE(queue.empty());
}

TEST(FrameQueue, DrainedBlocksGoBackToThePoolAndAreReused) {
  FramePool pool;
  FrameQueue queue(pool);
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t i = 0; i < 4 * kBlock; ++i) queue.push_back(frame(i));
    while (!queue.empty()) queue.pop_front();
  }
  EXPECT_EQ(pool.blocks(), 4u);
  // Cleared blocks return too.
  for (std::uint64_t i = 0; i < 4 * kBlock; ++i) queue.push_back(frame(i));
  queue.clear();
  FrameQueue other(pool);
  for (std::uint64_t i = 0; i < 4 * kBlock; ++i) other.push_back(frame(i));
  EXPECT_EQ(pool.blocks(), 4u);
}

TEST(FrameQueue, IdleQueueHoldsNoBlock) {
  FramePool pool;
  FrameQueue idle(pool);
  EXPECT_EQ(pool.blocks(), 0u);
  idle.push_back(frame(1));
  idle.pop_front();
  // The one block went back with the last frame; another queue takes it.
  FrameQueue busy(pool);
  busy.push_back(frame(2));
  EXPECT_EQ(pool.blocks(), 1u);
  EXPECT_TRUE(idle.empty());
}

TEST(FrameQueue, TwoQueuesShareOnePool) {
  FramePool pool;
  FrameQueue a(pool);
  FrameQueue b(pool);
  for (std::uint64_t i = 0; i < kBlock; ++i) {
    a.push_back(frame(i));
    b.push_back(frame(100 + i));
  }
  EXPECT_EQ(pool.blocks(), 2u);
  while (!a.empty()) a.pop_front();
  // b's next block is the one a drained.
  b.push_back(frame(100 + kBlock));
  EXPECT_EQ(pool.blocks(), 2u);
  for (std::uint64_t i = 0; i <= kBlock; ++i) {
    ASSERT_EQ(b.front().seq, 100 + i);
    b.pop_front();
  }
}

// ---------------------------------------------------------------------------
// Timer
// ---------------------------------------------------------------------------

TEST(Timer, FiresOnce) {
  Simulation sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.schedule(milliseconds(1));
  EXPECT_TRUE(t.pending());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.pending());
}

TEST(Timer, RescheduleLaterFiresAtNewDeadline) {
  Simulation sim;
  Time fired_at = -1;
  Timer t(sim, [&] { fired_at = sim.now(); });
  t.schedule(milliseconds(1));
  sim.schedule(microseconds(500), [&] { t.schedule(milliseconds(2)); });
  sim.run();
  EXPECT_EQ(fired_at, microseconds(500) + milliseconds(2));
}

TEST(Timer, RescheduleEarlierFiresAtNewDeadline) {
  Simulation sim;
  Time fired_at = -1;
  Timer t(sim, [&] { fired_at = sim.now(); });
  t.schedule(milliseconds(10));
  sim.schedule(microseconds(100), [&] { t.schedule(microseconds(100)); });
  sim.run();
  EXPECT_EQ(fired_at, microseconds(200));
}

TEST(Timer, CancelPreventsFiring) {
  Simulation sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.schedule(milliseconds(1));
  sim.schedule(microseconds(1), [&] { t.cancel(); });
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(t.pending());
}

TEST(Timer, CancelThenRescheduleWorks) {
  Simulation sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.schedule(milliseconds(1));
  t.cancel();
  t.schedule(milliseconds(2));
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), milliseconds(2));
}

TEST(Timer, RepeatedRestartsFireOnceAtLastDeadline) {
  // The TCP RTO pattern: restarted on every ACK, must fire only after the
  // final deadline.
  Simulation sim;
  std::vector<Time> fires;
  Timer t(sim, [&] { fires.push_back(sim.now()); });
  t.schedule(milliseconds(1));
  for (int i = 1; i <= 50; ++i) {
    sim.schedule(microseconds(i * 10), [&] { t.schedule(milliseconds(1)); });
  }
  sim.run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], microseconds(500) + milliseconds(1));
}

TEST(Timer, FiringCanReschedule) {
  Simulation sim;
  int fires = 0;
  Timer t(sim, [&] {
    if (++fires < 3) t.schedule(milliseconds(1));
  });
  t.schedule(milliseconds(1));
  sim.run();
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(sim.now(), milliseconds(3));
}

// The queued event is a typed call on the timer, not a closure: firing
// adds one call to the executed events and no callback.
TEST(Timer, FiresThroughATypedCall) {
  Simulation sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.schedule(milliseconds(1));
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.events_by_kind().calls, 1u);
  EXPECT_EQ(sim.events_by_kind().callbacks, 0u);
  EXPECT_EQ(sim.events_executed(), 1u);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(11);
  int counts[10] = {};
  for (int i = 0; i < 100000; ++i) ++counts[rng.below(10)];
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(Rng, BetweenInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.between(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// ---------------------------------------------------------------------------
// ParallelEngine: cross-partition posts and the lookahead bound
// ---------------------------------------------------------------------------

TEST(ParallelEngine, PostAtTheLookaheadLandsOnTheDestination) {
  ParallelEngine engine(2, microseconds(1), 1);
  Simulation& src = engine.partition(0);
  Simulation& dst = engine.partition(1);
  Time delivered = -1;
  src.schedule(microseconds(5), [&] {
    src.post(dst, src.cross_lookahead(), [&] { delivered = dst.now(); });
  });
  engine.run_until(microseconds(20));
  EXPECT_EQ(delivered, microseconds(6));
}

/// A typed packet handler that records "packet <aux>" in the vector at
/// `target`.
void record_packet(void* target, std::uint32_t aux, const net::Packet&) {
  static_cast<std::vector<std::string>*>(target)->push_back(
      "packet " + std::to_string(aux));
}

TEST(ParallelEngine, PostsDrainInSourceThenFifoOrderBeforeRunUntilReturns) {
  // Two sources post equal-time callbacks and a typed packet to one
  // destination in the window a stop() ends, and one more callback
  // arrives between calls. Each destination drains its posts in (source
  // partition id, FIFO) order, packets and callbacks alike, and run_until
  // drains the last window's posts before it returns, so they wait in the
  // destination's wheel between calls and the later post runs after them.
  for (int threads : {1, 2}) {
    ParallelEngine engine(3, microseconds(1), threads);
    Simulation& dst = engine.partition(2);
    const Time when = microseconds(6);
    std::vector<std::string> order;  // appended only by dst's events
    const auto post = [&](int src, std::string tag) {
      Simulation& from = engine.partition(src);
      from.post(dst, when - from.now(),
                [&order, tag = std::move(tag)] { order.push_back(tag); });
    };
    for (int src : {1, 0}) {
      engine.partition(src).schedule(microseconds(5), [&, src] {
        Simulation& from = engine.partition(src);
        const std::string id = std::to_string(src);
        post(src, id + "a");
        from.post_packet(dst, when - from.now(), &order,
                         static_cast<std::uint32_t>(src), record_packet,
                         net::Packet{});
        post(src, id + "b");
        if (src == 1) from.stop();
      });
    }
    engine.run_until(microseconds(20));
    ASSERT_TRUE(engine.stopped()) << threads << " threads";
    ASSERT_TRUE(dst.pending()) << threads << " threads";
    EXPECT_EQ(dst.next_event_time(), when) << threads << " threads";
    post(0, "between calls");
    engine.run_until(microseconds(20));
    EXPECT_EQ(order, (std::vector<std::string>{"0a", "packet 0", "0b", "1a",
                                               "packet 1", "1b",
                                               "between calls"}))
        << threads << " threads";
  }
}

TEST(ParallelEngine, CriticalPathCountsTheBusiestWorkerOfEachWindow) {
  // Partition 0 runs three events per microsecond, partition 1 one and
  // partition 2 none; each 1 us lookahead window covers two microseconds.
  // The first window finds every cumulative count at zero, so worker 0
  // runs all three partitions; from then on partition 0 has worker 0 to
  // itself: 8 + 4 x 6 = 32 events on the critical path at two threads.
  for (int threads : {1, 2}) {
    ParallelEngine engine(3, microseconds(1), threads);
    for (int us = 1; us <= 10; ++us) {
      for (int i = 0; i < 3; ++i) {
        engine.partition(0).schedule(microseconds(us), [] {});
      }
      engine.partition(1).schedule(microseconds(us), [] {});
    }
    engine.run_until(microseconds(10));
    EXPECT_EQ(engine.events_executed(), 40u);
    EXPECT_EQ(engine.critical_path_events(), threads == 1 ? 40u : 32u);
    EXPECT_EQ(engine.reassignments(), threads == 1 ? 0u : 1u);
  }
}

TEST(ParallelEngineDeathTest, PostBelowTheLookaheadViolatesTheContract) {
#if PLANCK_CONTRACTS_ENABLED
  const auto post_too_early = [] {
    ParallelEngine engine(2, microseconds(1), 1);
    Simulation& src = engine.partition(0);
    Simulation& dst = engine.partition(1);
    src.schedule(microseconds(5), [&] {
      src.post(dst, src.cross_lookahead() / 2, [] {});
    });
    engine.run_until(microseconds(20));
  };
  EXPECT_DEATH(post_too_early(), "conservative lookahead");
#else
  GTEST_SKIP() << "PLANCK_CONTRACT is compiled out in this build";
#endif
}

// Parameterized: the event queue keeps FIFO order at every timestamp for
// various interleavings.
class EventQueueFifoTest : public ::testing::TestWithParam<int> {};

TEST_P(EventQueueFifoTest, StableWithinTimestamp) {
  const int groups = GetParam();
  EventQueue q;
  std::vector<std::pair<Time, int>> order;
  Rng rng(static_cast<std::uint64_t>(groups));
  std::vector<int> counters(static_cast<std::size_t>(groups), 0);
  for (int i = 0; i < 500; ++i) {
    const Time t =
        static_cast<Time>(rng.below(static_cast<std::uint64_t>(groups)));
    const int seq = counters[static_cast<std::size_t>(t)]++;
    q.push(t, [&order, t, seq] { order.emplace_back(t, seq); });
  }
  while (!q.empty()) q.run_top();
  std::vector<int> next(static_cast<std::size_t>(groups), 0);
  for (const auto& [t, seq] : order) {
    EXPECT_EQ(seq, next[static_cast<std::size_t>(t)]++);
  }
}

INSTANTIATE_TEST_SUITE_P(Interleavings, EventQueueFifoTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

}  // namespace
}  // namespace planck::sim
