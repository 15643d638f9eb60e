// Differential fuzz harness: the production timing wheel (sim::EventQueue)
// against the preserved pre-wheel binary heap (bench::BaselineHeapQueue).
//
// Both schedulers promise identical observable ordering: events pop in
// (time, push-order) order, FIFO at equal timestamps, and cancellation is
// an exact no-show. The harness feeds both the same operation stream and
// demands byte-identical pop order and timestamps; any divergence aborts
// with the step at which the schedulers disagreed.
//
// Time deltas are generated as base << shift with shift up to 39 bits so
// inputs exercise every wheel level — the near ring, all three far wheels,
// re-file boundaries, and the >137 s overflow heap — or drawn from the
// block edges: one block (8,192 ns) and two blocks from the cursor, where
// the near ring's two blocks end.
// Cancels come three ways: of a live event, of a stale id (one already
// popped or cancelled), and from inside a popped callback.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "baseline_heap_queue.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace {

[[noreturn]] void divergence(const char* what, std::uint64_t step,
                             long long wheel, long long heap) {
  std::fprintf(stderr,
               "fuzz_wheel_vs_heap: DIVERGENCE (%s) at pop %llu: "
               "wheel=%lld heap=%lld\n",
               what, static_cast<unsigned long long>(step), wheel, heap);
  std::abort();
}

struct Reader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  std::uint8_t u8() { return pos < size ? data[pos++] : 0; }
  std::uint16_t u16() {
    return static_cast<std::uint16_t>(u8() | (u8() << 8));
  }
  bool done() const { return pos >= size; }
};

struct Live {
  std::uint64_t seq;
  planck::sim::EventId wheel_id;
  planck::bench::BaselineHeapQueue::EventId heap_id;
};

// Each popped callback records its sequence number here; the driver
// compares the two records after every paired pop.
std::uint64_t g_wheel_seq = 0;
std::uint64_t g_heap_seq = 0;

// Set by the cancel-on-pop op: the next popped callback in each queue
// cancels this event in its own queue, from inside the pop.
planck::sim::EventId g_wheel_victim = 0;
planck::bench::BaselineHeapQueue::EventId g_heap_victim = 0;

}  // namespace

void planck_fuzz_one(const std::uint8_t* data, std::size_t size) {
  planck::sim::EventQueue wheel;
  planck::bench::BaselineHeapQueue heap;
  Reader in{data, size};

  // Both queues clamp nothing themselves below `now` because we only push
  // at now + delta, delta >= 0, where `now` is the last popped timestamp
  // (the wheel clamps earlier pushes to it; the heap would not — pushing
  // only forward keeps the comparison exact and matches the Simulation
  // driver's own monotonicity guarantee).
  planck::sim::Time now{0};
  std::uint64_t next_seq = 1;
  std::uint64_t pops = 0;
  std::vector<Live> live;
  std::vector<Live> stale;  // popped, cancelled, or armed by op 5
  g_wheel_victim = 0;
  g_heap_victim = 0;

  // Moves live[i] to the stale list.
  const auto retire = [&](std::size_t i) {
    stale.push_back(live[i]);
    live[i] = live.back();
    live.pop_back();
  };

  const auto pop_both = [&] {
    planck::sim::Time wheel_when{0};
    planck::sim::Time heap_when{0};
    const planck::sim::Time wheel_next = wheel.next_time();
    const planck::sim::Time heap_next = heap.next_time();
    if (wheel_next != heap_next) {
      divergence("next_time", pops, static_cast<long long>(wheel_next),
                 static_cast<long long>(heap_next));
    }
    g_wheel_seq = 0;
    g_heap_seq = 0;
    wheel.run_top(&wheel_when);
    heap.pop(&heap_when)();
    ++pops;
    if (wheel_when != heap_when) {
      divergence("pop time", pops, static_cast<long long>(wheel_when),
                 static_cast<long long>(heap_when));
    }
    if (g_wheel_seq != g_heap_seq) {
      divergence("pop order", pops, static_cast<long long>(g_wheel_seq),
                 static_cast<long long>(g_heap_seq));
    }
    now = wheel_when;
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i].seq == g_wheel_seq) {
        retire(i);
        break;
      }
    }
  };

  while (!in.done()) {
    const std::uint8_t op = in.u8() % 6;
    if (op <= 1) {  // push (weighted 2x: keeps the queues populated)
      const std::uint64_t base = in.u8();
      const std::uint8_t horizon = in.u8();
      // 200 of 256 horizons shift base by up to 39 bits (~2^39 ns spans
      // the overflow); the other 56 pick a block edge.
      constexpr planck::sim::Time kEdges[] = {8191, 8192, 8193, 16383, 16384};
      const planck::sim::Time delta =
          horizon < 200 ? static_cast<planck::sim::Time>(base << (horizon % 40))
                        : kEdges[horizon % 5];
      const planck::sim::Time when = now + delta;
      const std::uint64_t seq = next_seq++;
      const auto wheel_id = wheel.push(when, [seq, &wheel] {
        g_wheel_seq = seq;
        if (g_wheel_victim != 0) wheel.cancel(std::exchange(g_wheel_victim, 0));
      });
      const auto heap_id = heap.push(when, [seq, &heap] {
        g_heap_seq = seq;
        if (g_heap_victim != 0) heap.cancel(std::exchange(g_heap_victim, 0));
      });
      live.push_back(Live{seq, wheel_id, heap_id});
    } else if (op == 2) {  // cancel a live event in both queues
      if (!live.empty()) {
        const std::size_t i = in.u16() % live.size();
        wheel.cancel(live[i].wheel_id);
        heap.cancel(live[i].heap_id);
        retire(i);
      }
    } else if (op == 3) {  // pop one from both, compare
      if (wheel.empty() != heap.empty()) {
        divergence("empty", pops, wheel.empty() ? 1 : 0, heap.empty() ? 1 : 0);
      }
      if (!wheel.empty()) pop_both();
    } else if (op == 4) {  // cancel a stale id in both queues
      if (!stale.empty()) {
        const Live& s = stale[in.u16() % stale.size()];
        wheel.cancel(s.wheel_id);
        heap.cancel(s.heap_id);
      }
    } else {  // the next popped callbacks cancel a live event
      if (!live.empty() && g_wheel_victim == 0) {
        const std::size_t i = in.u16() % live.size();
        g_wheel_victim = live[i].wheel_id;
        g_heap_victim = live[i].heap_id;
        // Retired at once: the next pop's callbacks cancel it (their own
        // running id, if it is the event popped), and an earlier stale
        // cancel (op 4) cancels it in both queues first.
        retire(i);
      }
    }
  }

  // Drain: the full residual pop order must also match.
  while (!wheel.empty()) {
    if (heap.empty()) divergence("drain empty", pops, 0, 1);
    pop_both();
  }
  if (!heap.empty()) divergence("drain empty", pops, 1, 0);
}

#include "fuzz_driver.hpp"
