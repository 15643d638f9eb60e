#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <initializer_list>
#include <new>
#include <utility>

#include "sim/contract.hpp"

namespace planck::sim {
namespace {

std::uint32_t scan_bits(const std::uint64_t* bits, int nwords,
                        std::uint32_t start) {
  const auto total = static_cast<std::uint32_t>(nwords) * 64;
  if (start >= total) return 0xffffffffu;
  int w = static_cast<int>(start >> 6);
  std::uint64_t word = bits[w] & (~0ULL << (start & 63));
  for (;;) {
    if (word != 0) {
      return static_cast<std::uint32_t>(w) * 64 +
             static_cast<std::uint32_t>(__builtin_ctzll(word));
    }
    if (++w >= nwords) return 0xffffffffu;
    word = bits[w];
  }
}

void set_bit(std::uint64_t* bits, std::uint32_t i) {
  bits[i >> 6] |= 1ULL << (i & 63);
}

void clear_bit(std::uint64_t* bits, std::uint32_t i) {
  bits[i >> 6] &= ~(1ULL << (i & 63));
}

}  // namespace

EventQueue::EventQueue() {
  std::fill(std::begin(near_), std::end(near_), kNil);
  std::fill(std::begin(far_), std::end(far_), kNil);
}

EventQueue::~EventQueue() {
  // Pending callbacks still own their closures; the slab's raw storage
  // would not release them.
  for (std::uint32_t i = 0; i < node_count_; ++i) {
    Node& n = node(i);
    if (n.state == State::kPending && n.kind == Kind::kCallback) {
      n.u.cb.~Callback();
    }
  }
}

// --- slab -------------------------------------------------------------------

std::uint32_t EventQueue::alloc_node() {
  if (free_head_ != kNil) {
    const std::uint32_t idx = free_head_;
    free_head_ = node(idx).next;
    return idx;
  }
  const std::uint32_t idx = node_count_;
  const std::uint32_t slot = idx & (kChunkSize - 1);
  if (slot == 0) chunks_.emplace_back(new NodeSlot[kChunkSize]);
  ::new (&chunks_.back()[slot].node) Node;
  ++node_count_;
  return idx;
}

void EventQueue::free_node(std::uint32_t idx) {
  Node& n = node(idx);
  ++n.gen;  // invalidates every outstanding EventId for this slot
  n.state = State::kFree;
  n.next = free_head_;
  free_head_ = idx;
}

// --- scheduling -----------------------------------------------------------

std::uint32_t EventQueue::prepare(Time when, Kind kind, std::uint32_t aux) {
  if (when < cursor_) when = cursor_;  // time never moves backwards
  if (cached_ != kNil && when < cached_when_) {
    cached_ = kNil;  // the new event beats the memoized minimum
  }
  const std::uint32_t idx = alloc_node();
  Node& n = node(idx);
  n.when = when;
  n.state = State::kPending;
  n.kind = kind;
  n.aux = aux;
  return idx;
}

EventId EventQueue::commit(std::uint32_t idx) {
  if (!file(idx)) ++work_.far_files;
  ++live_;
  return (static_cast<EventId>(idx + 1) << 32) | node(idx).gen;
}

EventId EventQueue::push(Time when, Callback cb) {
  const std::uint32_t idx = prepare(when, Kind::kCallback, 0);
  ::new (&node(idx).u.cb) Callback(std::move(cb));
  return commit(idx);
}

EventId EventQueue::push_packet(Time when, void* target, std::uint32_t aux,
                                PacketFn fn, const net::Packet& packet) {
  const std::uint32_t idx = prepare(when, Kind::kPacket, aux);
  ::new (&node(idx).u.dp) DeliverPacket{fn, target, packet};
  return commit(idx);
}

EventId EventQueue::push_call(Time when, void* target, std::uint32_t aux,
                              CallFn fn) {
  const std::uint32_t idx = prepare(when, Kind::kCall, aux);
  ::new (&node(idx).u.call) Call{fn, target};
  return commit(idx);
}

bool EventQueue::file(std::uint32_t idx) {
  // The near ring holds the cursor's block and the next one; every later
  // block's events share the far slot of their block mod 256.
  const Time when = node(idx).when;
  if (is_far(when)) {
    const std::uint32_t s = far_slot(when >> kBlockBits);
    link(far_[s], far_bits_, s, idx);
    return false;
  }
  const std::uint32_t s = near_slot(when);
  link(near_[s], near_bits_, s, idx);
  return true;
}

void EventQueue::link(std::uint32_t& head, std::uint64_t* bits,
                      std::uint32_t slot, std::uint32_t idx) {
  Node& n = node(idx);
  if (head == kNil) {
    head = idx;
    n.next = n.prev = idx;
    set_bit(bits, slot);
    return;
  }
  // Append at the tail, which is the head's `prev`.
  Node& first = node(head);
  const std::uint32_t tail = first.prev;
  n.prev = tail;
  n.next = head;
  node(tail).next = idx;
  first.prev = idx;
}

void EventQueue::unlink(std::uint32_t& head, std::uint64_t* bits,
                        std::uint32_t slot, std::uint32_t idx) {
  Node& n = node(idx);
  PLANCK_CONTRACT(node(n.prev).next == idx && node(n.next).prev == idx,
                  "an unlinked node's neighbours in its slot ring name it");
  if (n.next == idx) {  // the slot's only node
    PLANCK_CONTRACT(head == idx, "a slot's only node is its head");
    head = kNil;
    clear_bit(bits, slot);
    return;
  }
  node(n.prev).next = n.next;
  node(n.next).prev = n.prev;
  if (head == idx) head = n.next;
}

void EventQueue::unlink(std::uint32_t idx) {
  // A pending node sits where a push at this moment would file it, so its
  // slot follows from its time and the cursor.
  const Time when = node(idx).when;
  if (is_far(when)) {
    const std::uint32_t s = far_slot(when >> kBlockBits);
    unlink(far_[s], far_bits_, s, idx);
  } else {
    const std::uint32_t s = near_slot(when);
    unlink(near_[s], near_bits_, s, idx);
  }
}

// --- cancellation ---------------------------------------------------------

void EventQueue::cancel(EventId id) {
  const auto idx_plus = static_cast<std::uint32_t>(id >> 32);
  if (idx_plus == 0 || idx_plus > node_count_) return;
  const std::uint32_t idx = idx_plus - 1;
  Node& n = node(idx);
  if (n.gen != static_cast<std::uint32_t>(id)) return;  // fired: safe no-op
  if (n.state != State::kPending) return;  // executing right now: no-op
  if (n.kind == Kind::kCallback) n.u.cb.~Callback();  // release promptly
  --live_;
  if (cached_ == idx) cached_ = kNil;  // any other memo is still the minimum
  unlink(idx);
  free_node(idx);
}

// --- popping --------------------------------------------------------------

Time EventQueue::next_time() {
  const std::uint32_t idx = peek();
  assert(idx != kNil);
  return node(idx).when;
}

void EventQueue::run_top(Time* when) {
  const std::uint32_t idx = peek();
  assert(idx != kNil);
  Node& n = node(idx);
  const Time t = n.when;
  if ((t >> kBlockBits) != (cursor_ >> kBlockBits)) enter_block(t);
  cursor_ = t;
  if (when != nullptr) *when = t;

  // Entering the block filed every event of it in the near ring, and the
  // earliest is its slot's head.
  assert(near_[near_slot(t)] == idx);
  unlink(idx);
  cached_ = kNil;
  --live_;
  n.state = State::kExecuting;  // cancel(own id) during execution: no-op

  // Execute in place: the chunked slab keeps `n` and its closure stable
  // even if the event pushes (growing the slab) while running.
  switch (n.kind) {
    case Kind::kCallback:
      ++executed_.callbacks;
      n.u.cb();
      n.u.cb.~Callback();
      break;
    case Kind::kPacket:
      ++executed_.packets;
      n.u.dp.fn(n.u.dp.target, n.aux, n.u.dp.packet);
      break;
    case Kind::kCall:
      ++executed_.calls;
      n.u.call.fn(n.u.call.target, n.aux);
      break;
  }
  free_node(idx);
}

std::uint32_t EventQueue::peek() {
  if (cached_ != kNil) return cached_;
  assert(live_ > 0);
  // A pure read of the earliest event: it never moves cursor_ and never
  // re-files, so probing the queue cannot affect where later pushes land.
  //
  // Every near-ring event is earlier than every far one, and the ring read
  // from the cursor's slot, wrapping once, is in time order: slots behind
  // the cursor are empty. A one-nanosecond slot's head is its earliest
  // pushed event.
  const std::uint32_t from = near_slot(cursor_);
  std::uint32_t s = scan_bits(near_bits_, kNearWords, from);
  if (s == kNotFound) {
    s = scan_bits(near_bits_, static_cast<int>(from >> 6) + 1, 0);
  }
  const std::uint32_t best = s != kNotFound ? near_[s] : far_min();
  cached_ = best;
  cached_when_ = node(best).when;
  return best;
}

std::uint32_t EventQueue::far_min() {
  // Read the far slots in block order from two blocks past the cursor's
  // (the near ring covers the two before), each standing for its block of
  // this round. Every event of a slot's own block is earlier than every
  // later-round event there and than every event of a later slot, so the
  // first slot whose minimum is of its own block holds the earliest
  // event. Else every event lies a round or more ahead, in distinct
  // blocks per slot, and the earliest slot minimum wins. Equal times sit
  // in push order within a slot, so a walk keeps the first one met.
  const Time first = (cursor_ >> kBlockBits) + 2;
  const std::uint32_t from = far_slot(first);
  std::uint32_t best = kNil;
  for (const auto& [lo, hi] :
       {std::pair{from, kFarSlots}, std::pair{0u, from}}) {
    for (std::uint32_t s = scan_bits(far_bits_, kFarWords, lo); s < hi;
         s = scan_bits(far_bits_, kFarWords, s + 1)) {
      const std::uint32_t head = far_[s];
      std::uint32_t slot_min = head;
      ++work_.far_walked;
      for (std::uint32_t h = node(head).next; h != head; h = node(h).next) {
        ++work_.far_walked;
        if (node(h).when < node(slot_min).when) slot_min = h;
      }
      const Time block = first + ((s - from) & (kFarSlots - 1));
      if ((node(slot_min).when >> kBlockBits) == block) return slot_min;
      if (best == kNil || node(slot_min).when < node(best).when) {
        best = slot_min;
      }
    }
  }
  assert(best != kNil);
  return best;
}

void EventQueue::enter_block(Time when) {
  // The cursor moves only forward and only to the earliest event, so
  // nothing is behind it. Stepping into the next block, whose events the
  // near ring already holds, leaves one block newly covered: the one after
  // it. A jump (the near ring was empty) covers the cursor's own block
  // too, and re-files it first.
  const Time block = when >> kBlockBits;
  const bool jump = block - (cursor_ >> kBlockBits) > 1;
  cursor_ = when;
  if (jump) refile(block);
  refile(block + 1);
}

void EventQueue::refile(Time block) {
  const std::uint32_t s = far_slot(block);
  std::uint32_t& head = far_[s];
  if (head == kNil) return;
  // In list order: equal times keep their push order in the near slot
  // they land in, which holds none of those times yet. An event of a
  // later round stays where it is.
  const std::uint32_t last = node(head).prev;
  for (std::uint32_t h = head;;) {
    const std::uint32_t next = node(h).next;
    const bool done = h == last;
    if ((node(h).when >> kBlockBits) == block) {
      unlink(head, far_bits_, s, h);
      file(h);
      ++work_.refiles;
    } else {
      ++work_.far_walked;
    }
    if (done) return;
    h = next;
  }
}

}  // namespace planck::sim
