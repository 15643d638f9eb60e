#pragma once

#include <cstdint>
#include <utility>

#include "sim/simulation.hpp"

namespace planck::sim {

/// A restartable one-shot timer bound to a Simulation, for protocols (TCP
/// RTO, flow timeouts, poll intervals) that re-arm constantly. Purely a
/// convenience/performance helper: cancel() on the engine is a safe no-op
/// for already-fired ids, so nothing here exists for correctness.
///
/// Rescheduling is lazy: a timer that is pushed *later* (the common case —
/// a TCP RTO restarted on every ACK) just updates the deadline, and the
/// already-queued event re-arms itself when it fires early, so a restart
/// costs no scheduler operation. Moving a deadline *earlier* and cancel()
/// each cancel the queued event, which the engine frees at once. A TCP
/// receiver's delayed-ACK timer takes that path on every ACK it sends
/// (TcpReceiver::send_ack cancels it).
///
/// The queued event is a typed call on the timer itself, not a closure, so
/// arming one copies no closure: `on_fire` is stored once, here.
class Timer {
 public:
  Timer(Simulation& simulation, EventQueue::Callback on_fire)
      : sim_(simulation), on_fire_(std::move(on_fire)) {}

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  ~Timer() { cancel(); }

  /// (Re)arms the timer to fire `delay` from now.
  void schedule(Duration delay) {
    const Time when = sim_.now() + (delay > 0 ? delay : 0);
    deadline_ = when;
    if (id_ != 0) {
      if (when >= queued_at_) return;  // queued event will re-arm lazily
      sim_.cancel(id_);
      id_ = 0;
    }
    arm(when);
  }

  /// Stops the timer if pending; no-op otherwise.
  void cancel() {
    deadline_ = -1;
    if (id_ != 0) {
      sim_.cancel(id_);
      id_ = 0;
    }
  }

  bool pending() const { return deadline_ >= 0; }

 private:
  void arm(Time when) {
    queued_at_ = when;
    id_ = sim_.schedule_call_at(when, this, 0, &Timer::fire);
  }

  static void fire(void* target, std::uint32_t /*aux*/) {
    auto& timer = *static_cast<Timer*>(target);
    timer.id_ = 0;  // consumed; schedule() must not take the lazy path now
    if (timer.deadline_ > timer.sim_.now()) {
      timer.arm(timer.deadline_);  // deadline was pushed back: re-arm
      return;
    }
    timer.deadline_ = -1;
    timer.on_fire_();
  }

  Simulation& sim_;
  EventQueue::Callback on_fire_;
  EventId id_ = 0;       // nonzero iff an event is queued
  Time queued_at_ = 0;
  Time deadline_ = -1;   // -1 = not pending
};

}  // namespace planck::sim
