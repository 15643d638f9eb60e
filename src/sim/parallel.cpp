#include "sim/parallel.hpp"

#include <barrier>
#include <cassert>
#include <thread>
#include <utility>

#include "obs/obs.hpp"
#include "sim/contract.hpp"

namespace planck::sim {

ParallelEngine::ParallelEngine(int data_partitions, Duration lookahead,
                               int threads)
    : lookahead_(lookahead > 0 ? lookahead : 1) {
  assert(data_partitions >= 1);
  threads_ = threads < 1 ? 1 : threads;
  if (threads_ > data_partitions) threads_ = data_partitions;
  const int total = data_partitions + 1;
  partitions_.reserve(static_cast<std::size_t>(total));
  outboxes_.resize(static_cast<std::size_t>(total));
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
  CrossEvent ev;
  ev.dst = &dst;
  ev.when = when;
  ev.cb = std::move(cb);
  outboxes_[static_cast<std::size_t>(src)].push_back(std::move(ev));
}

void ParallelEngine::enqueue_packet(int src, Simulation& dst, Time when,
                                    void* target, std::uint32_t aux,
                                    EventQueue::PacketFn fn,
                                    const net::Packet& packet) {
  PLANCK_CONTRACT(when >= bound_,
                  "conservative lookahead: a cross-partition event lands at "
                  "or past the current window bound");
  CrossEvent ev;
  ev.dst = &dst;
  ev.when = when;
  ev.packet_fn = fn;
  ev.target = target;
  ev.aux = aux;
  ev.packet = packet;
  outboxes_[static_cast<std::size_t>(src)].push_back(std::move(ev));
}

void ParallelEngine::flush_outboxes() {
  // Source partition id, then FIFO: the deterministic merge order. The
  // destination wheels break equal-time ties by push order, so this loop
  // *is* the tiebreak — no sort, no thread-dependent interleaving.
  for (std::vector<CrossEvent>& box : outboxes_) {
    for (CrossEvent& ev : box) {
      if (ev.packet_fn != nullptr) {
        ev.dst->schedule_packet_at(ev.when, ev.target, ev.aux, ev.packet_fn,
                                   ev.packet);
      } else {
        ev.dst->schedule_at(ev.when, std::move(ev.cb));
      }
    }
    box.clear();
  }
}

bool ParallelEngine::prepare_window(Time deadline) {
  Time min_next = kNever;
  for (const auto& p : partitions_) {
    if (p->pending()) {
      const Time t = p->next_event_time();
      if (t < min_next) min_next = t;
    }
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

void ParallelEngine::serial_phase(Time deadline) {
  // Data threads are parked at the barrier: the control partition's
  // closures may touch fabric state directly, race-free. Its effects land
  // at or after the window bound — control quantizes to the lookahead
  // grid by construction.
  control().run_until(bound_);
  ++windows_;
  if (!closing_) {
    for (std::size_t pid = 0; pid < partitions_.size(); ++pid) {
      if (partitions_[pid]->events_executed() == events_at_window_start_[pid])
        ++stalls_[pid];
    }
  }
  flush_outboxes();
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
  for (std::size_t pid = 0; pid < partitions_.size(); ++pid) {
    events_at_window_start_[pid] = partitions_[pid]->events_executed();
  }
}

void ParallelEngine::run_until(Time deadline) {
  stop_seen_ = false;
  finished_ = false;
  flush_outboxes();  // setup-time posts, if any (normally empty)
  closing_ = !prepare_window(deadline);
  for (std::size_t pid = 0; pid < partitions_.size(); ++pid) {
    events_at_window_start_[pid] = partitions_[pid]->events_executed();
  }
  // One window loop for every thread count: with a single worker no
  // thread starts and the barrier runs serial_phase on the calling thread.
  const int workers = threads_;
  std::barrier barrier(workers,
                       [this, deadline]() noexcept { serial_phase(deadline); });
  // Static round-robin partition ownership: worker w runs partitions
  // {w, w + workers, ...} every window, so each partition has exactly one
  // writer for the whole run and outbox writes stay single-writer.
  const auto work = [this, workers, &barrier](int w) {
    while (true) {
      for (int pid = w; pid < data_partitions(); pid += workers) {
        partition(pid).run_until(bound_);
      }
      // The completion phase (serial_phase) runs on the last thread to
      // arrive; its writes to bound_/finished_ happen-before every
      // worker's release.
      barrier.arrive_and_wait();
      if (finished_) return;
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers) - 1);
  for (int w = 1; w < workers; ++w) pool.emplace_back(work, w);
  work(0);
  for (std::thread& t : pool) t.join();
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
