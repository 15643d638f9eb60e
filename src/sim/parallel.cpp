#include "sim/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <numeric>
#include <thread>
#include <utility>
#include <variant>

#include "obs/obs.hpp"
#include "sim/contract.hpp"

namespace planck::sim {
namespace {

/// The window barrier: the last of `parties` threads to arrive runs the
/// serial phase, then releases the others by bumping a generation
/// counter. That release increment, which every waiter acquires, and
/// every arriver's acq_rel increment of the arrival count are the
/// happens-before edges between windows.
/// A waiter pauses briefly, then yields its CPU a bounded number of
/// times, then blocks in std::atomic::wait: a window ends in tens to
/// hundreds of microseconds, so parking at once would pay a futex wake
/// per window, while spinning would starve the thread being waited for
/// when there are fewer CPUs than workers.
class WindowBarrier {
 public:
  explicit WindowBarrier(int parties) : parties_(parties) {}

  /// Counts the caller in. The last arriver returns true at once: it runs
  /// the serial phase and then calls release(). Every other caller
  /// returns false once that release has happened.
  bool arrive() {
    const std::uint32_t generation =
        generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      return true;
    }
    for (int i = 0; i < kPauses; ++i) {
      if (released(generation)) return false;
      cpu_relax();
    }
    for (int i = 0; i < kYields; ++i) {
      if (released(generation)) return false;
      std::this_thread::yield();
    }
    while (!released(generation)) {
      generation_.wait(generation, std::memory_order_acquire);
    }
    return false;
  }

  void release() {
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
  }

 private:
  static constexpr int kPauses = 64;
  static constexpr int kYields = 4096;

  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }

  bool released(std::uint32_t generation) const {
    return generation_.load(std::memory_order_acquire) != generation;
  }

  const int parties_;
  alignas(64) std::atomic<int> arrived_{0};
  alignas(64) std::atomic<std::uint32_t> generation_{0};
};

}  // namespace

ParallelEngine::ParallelEngine(int data_partitions, Duration lookahead,
                               int threads)
    : lookahead_(lookahead > 0 ? lookahead : 1) {
  assert(data_partitions >= 1);
  threads_ = threads < 1 ? 1 : threads;
  if (threads_ > data_partitions) threads_ = data_partitions;
  const int total = data_partitions + 1;
  partitions_.reserve(static_cast<std::size_t>(total));
  for (std::vector<Outbox>& parity : outboxes_) {
    parity.resize(static_cast<std::size_t>(total));
    for (Outbox& box : parity) box.to.resize(static_cast<std::size_t>(total));
  }
  owner_.assign(static_cast<std::size_t>(data_partitions), 0);
  stalls_.assign(static_cast<std::size_t>(total), 0);
  events_at_window_start_.assign(static_cast<std::size_t>(total), 0);
  for (int pid = 0; pid < total; ++pid) {
    auto sim = std::make_unique<Simulation>();
    sim->attach_hub(this, pid, lookahead_,
                    pid == data_partitions ? "sim.ctl"
                                           : "sim.p" + std::to_string(pid));
    partitions_.push_back(std::move(sim));
  }
}

void ParallelEngine::enqueue(int src, Simulation& dst, Time when,
                             EventQueue::Callback cb) {
  PLANCK_CONTRACT(when >= bound_,
                  "conservative lookahead: a cross-partition event lands at "
                  "or past the current window bound");
  Outbox& out = outbox(src);
  out.to[static_cast<std::size_t>(dst.partition_id())].emplace_back(
      when, nullptr, nullptr, 0u, std::move(cb));
  out.earliest = std::min(out.earliest, when);
}

void ParallelEngine::enqueue_packet(int src, Simulation& dst, Time when,
                                    void* target, std::uint32_t aux,
                                    EventQueue::PacketFn fn,
                                    const net::Packet& packet) {
  PLANCK_CONTRACT(when >= bound_,
                  "conservative lookahead: a cross-partition event lands at "
                  "or past the current window bound");
  Outbox& out = outbox(src);
  out.to[static_cast<std::size_t>(dst.partition_id())].emplace_back(
      when, fn, target, aux, packet);
  out.earliest = std::min(out.earliest, when);
}

void ParallelEngine::drain_inbox(int dst, int parity) {
  // Source partition id, then FIFO: the deterministic merge order. The
  // destination wheel breaks equal-time ties by push order, so this loop
  // *is* the tiebreak — no sort, no thread-dependent interleaving.
  Simulation& sim = partition(dst);
  for (Outbox& out : outboxes_[parity]) {
    std::vector<Post>& box = out.to[static_cast<std::size_t>(dst)];
    for (Post& post : box) {
      if (const auto* packet = std::get_if<net::Packet>(&post.payload)) {
        sim.schedule_packet_at(post.when, post.target, post.aux, post.fn,
                               *packet);
      } else {
        auto& cb = std::get<EventQueue::Callback>(post.payload);
        sim.schedule_at(post.when, std::move(cb));
      }
    }
    box.clear();
  }
}

void ParallelEngine::drain_all() {
  for (int dst = 0; dst < num_partitions(); ++dst) drain_inbox(dst, phase_);
  for (Outbox& out : outboxes_[phase_]) out.earliest = kNever;
}

bool ParallelEngine::prepare_window(Time deadline) {
  // The posts of the window just run are still in their outboxes; each
  // outbox's `earliest` stands in for them.
  Time min_next = kNever;
  for (const auto& p : partitions_) {
    if (p->pending()) min_next = std::min(min_next, p->next_event_time());
  }
  for (Outbox& out : outboxes_[phase_]) {
    min_next = std::min(min_next, out.earliest);
    out.earliest = kNever;
  }
  if (min_next > deadline) {
    bound_ = deadline;
    return false;
  }
  const Time horizon =
      min_next > kNever - lookahead_ ? kNever : min_next + lookahead_;
  bound_ = horizon < deadline ? horizon : deadline;
  return true;
}

void ParallelEngine::start_window() {
  for (std::size_t pid = 0; pid < partitions_.size(); ++pid) {
    events_at_window_start_[pid] = partitions_[pid]->events_executed();
  }
  // Longest processing time first over the cumulative counts: a
  // partition's past load predicts its next window, and a cumulative count
  // changes rank slowly, so the assignment (and each worker's cache)
  // stays put once balanced. Ties go to the lower partition id, then to
  // the lower worker id.
  std::vector<int> order(static_cast<std::size_t>(data_partitions()));
  std::iota(order.begin(), order.end(), 0);
  const auto events = [this](int pid) {
    return partition(pid).events_executed();
  };
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return events(a) > events(b);
  });
  std::vector<std::uint64_t> load(static_cast<std::size_t>(threads_), 0);
  bool moved = false;
  for (int pid : order) {
    const auto least = std::min_element(load.begin(), load.end());
    *least += events(pid);
    const int worker = static_cast<int>(least - load.begin());
    int& owner = owner_[static_cast<std::size_t>(pid)];
    moved = moved || owner != worker;
    owner = worker;
  }
  if (moved) ++reassignments_;
}

void ParallelEngine::serial_phase(Time deadline) {
  // Data threads wait at the barrier: the control partition's closures
  // may touch fabric state directly, race-free. Its effects land at or
  // after the window bound — control quantizes to the lookahead grid by
  // construction. It drains what the data partitions posted to it in the
  // previous window, as they drained theirs when this one began.
  drain_inbox(control_partition(), phase_ ^ 1);
  control().run_until(bound_);
  ++windows_;
  const auto ran = [this](int pid) {
    const auto i = static_cast<std::size_t>(pid);
    return partitions_[i]->events_executed() - events_at_window_start_[i];
  };
  if (!closing_) {
    for (int pid = 0; pid < num_partitions(); ++pid) {
      if (ran(pid) == 0) ++stalls_[static_cast<std::size_t>(pid)];
    }
  }
  // The busiest worker's share of the window, then the serial phase on
  // one thread.
  std::vector<std::uint64_t> load(static_cast<std::size_t>(threads_), 0);
  for (int pid = 0; pid < data_partitions(); ++pid) {
    load[static_cast<std::size_t>(owner_[static_cast<std::size_t>(pid)])] +=
        ran(pid);
  }
  critical_path_ +=
      *std::max_element(load.begin(), load.end()) + ran(control_partition());
  for (const auto& p : partitions_) {
    if (p->stop_requested()) stop_seen_ = true;
  }
  if (stop_seen_) {
    finished_ = true;
    return;
  }
  const bool had_work = prepare_window(deadline);
  if (!had_work && closing_) {
    finished_ = true;
    return;
  }
  // When nothing remains <= deadline, one final window (bound_ ==
  // deadline) advances every clock to the deadline before finishing.
  closing_ = !had_work;
  start_window();
  phase_ ^= 1;
}

void ParallelEngine::run_until(Time deadline) {
  stop_seen_ = false;
  finished_ = false;
  drain_all();  // posts made before this call, if any
  closing_ = !prepare_window(deadline);
  start_window();
  // One window loop for every thread count: with a single worker no
  // thread starts and the barrier runs serial_phase on the calling thread.
  WindowBarrier barrier(threads_);
  const auto work = [this, deadline, &barrier](int w) {
    while (true) {
      // Each partition has exactly one writer per window (owner_ changes
      // only in the serial phase), so outbox writes stay single-writer.
      for (int pid = 0; pid < data_partitions(); ++pid) {
        if (owner_[static_cast<std::size_t>(pid)] != w) continue;
        drain_inbox(pid, phase_ ^ 1);
        partition(pid).run_until(bound_);
      }
      if (barrier.arrive()) {
        serial_phase(deadline);
        barrier.release();
      }
      if (finished_) return;
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads_) - 1);
  for (int w = 1; w < threads_; ++w) pool.emplace_back(work, w);
  work(0);
  for (std::thread& t : pool) t.join();
  // The last window's posts go to their wheels now, in the order the
  // next window would have drained them, so pending() and
  // next_event_time() see them between calls.
  drain_all();
  for (const auto& p : partitions_) {
    PLANCK_TRACE_COUNTER(*p, p->component(), "events_executed",
                         p->events_executed());
  }
}

std::uint64_t ParallelEngine::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& p : partitions_) total += p->events_executed();
  return total;
}

std::uint64_t ParallelEngine::determinism_digest() const {
  // Same FNV-1a fold as Simulation::fold_digest, over the per-partition
  // digests and event counts in partition-id order.
  constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
  constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
  std::uint64_t digest = kFnvOffset;
  for (const auto& p : partitions_) {
    digest = (digest ^ p->determinism_digest()) * kFnvPrime;
    digest = (digest ^ p->events_executed()) * kFnvPrime;
  }
  return digest;
}

void ParallelEngine::set_telemetry(obs::Telemetry* telemetry) {
  for (const auto& p : partitions_) p->set_telemetry(telemetry);
  if (telemetry == nullptr) return;
  obs::MetricRegistry& metrics = telemetry->metrics();
  metrics.gauge("engine", "partitions", [this] {
    return static_cast<double>(num_partitions());
  });
  metrics.gauge("engine", "threads",
                [this] { return static_cast<double>(threads_); });
  metrics.gauge("engine", "windows",
                [this] { return static_cast<double>(windows_); });
  for (int pid = 0; pid < num_partitions(); ++pid) {
    metrics.gauge(partition(pid).component(), "barrier_stalls", [this, pid] {
      return static_cast<double>(barrier_stalls(pid));
    });
  }
}

}  // namespace planck::sim
