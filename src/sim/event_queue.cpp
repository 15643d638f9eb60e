#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
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
  for (auto& level : far_) std::fill(std::begin(level), std::end(level), kNil);
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

int EventQueue::far_level(Time when) const {
  for (int level = 0; level < kFarLevels; ++level) {
    const int page = kFarShift[level] + kFarBits;
    if ((when >> page) == (cursor_ >> page)) return level;
  }
  return kFarLevels;
}

bool EventQueue::file(std::uint32_t idx) {
  Node& n = node(idx);
  // The near ring holds the cursor's block and the next one (when >=
  // cursor_, so the block difference is never negative).
  if ((n.when >> kBlockBits) - (cursor_ >> kBlockBits) > 1) {
    file_far(idx);
    return false;
  }
  const std::uint32_t s = near_slot(n.when);
  n.level = 0;
  link(near_[s], near_bits_, s, idx);
  return true;
}

void EventQueue::file_far(std::uint32_t idx) {
  Node& n = node(idx);
  const int level = far_level(n.when);
  if (level == kFarLevels) {
    n.level = kOverflowLevel;
    overflow_.emplace(n.when, idx);  // after every equal key: push order
    return;
  }
  const std::uint32_t s = far_slot(level, n.when);
  n.level = static_cast<std::uint8_t>(level + 1);
  link(far_[level][s], far_bits_[level], s, idx);
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

void EventQueue::unlink(std::uint32_t idx) {
  // A wheel node's slot follows from its level and time: file() placed it
  // by exactly these bits, and a re-file re-places (and re-tags) it.
  Node& n = node(idx);
  std::uint32_t* head = nullptr;
  std::uint64_t* bits = nullptr;
  std::uint32_t s = 0;
  if (n.level == 0) {
    s = near_slot(n.when);
    head = &near_[s];
    bits = near_bits_;
  } else {
    const int level = n.level - 1;
    s = far_slot(level, n.when);
    head = &far_[level][s];
    bits = far_bits_[level];
  }
  PLANCK_CONTRACT(node(n.prev).next == idx && node(n.next).prev == idx,
                  "an unlinked node's neighbours in its slot ring name it");
  if (n.next == idx) {  // the slot's only node
    PLANCK_CONTRACT(*head == idx, "a slot's only node is its head");
    *head = kNil;
    clear_bit(bits, s);
    return;
  }
  node(n.prev).next = n.next;
  node(n.next).prev = n.prev;
  if (*head == idx) *head = n.next;
}

void EventQueue::erase_overflow(std::uint32_t idx) {
  const auto [lo, hi] = overflow_.equal_range(node(idx).when);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == idx) {
      overflow_.erase(it);
      return;
    }
  }
  PLANCK_CONTRACT(false, "an overflow node is in the overflow map");
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
  if (n.level == kOverflowLevel) {
    erase_overflow(idx);
  } else {
    unlink(idx);
  }
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
  assert(n.level == 0 && near_[near_slot(t)] == idx);
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
  // Level containment makes this a short walk: every event resident in a
  // far level is strictly later than every event one level below (the
  // cursor entering a page re-files that page's slot first), so the first
  // level with an event holds the minimum, and within a level the first
  // occupied slot does. The slots at and behind the cursor's are empty.
  for (int level = 0; level < kFarLevels; ++level) {
    const std::uint32_t fs =
        scan_bits(far_bits_[level], kFarWords, far_slot(level, cursor_));
    if (fs == kNotFound) continue;
    // A far slot spans many nanoseconds; walk its ring for the minimum.
    // Equal times sit in push order, so the first one met wins.
    const std::uint32_t head = far_[level][fs];
    std::uint32_t best = head;
    ++work_.peek_walked;
    for (std::uint32_t h = node(head).next; h != head; h = node(h).next) {
      ++work_.peek_walked;
      if (node(h).when < node(best).when) best = h;
    }
    return best;
  }
  assert(!overflow_.empty());
  return overflow_.begin()->second;
}

void EventQueue::enter_block(Time when) {
  // The cursor moves only forward and only to the earliest event, so
  // nothing is behind it, and each far wheel holds events of the cursor's
  // own page only. Re-file top down, so every event re-files straight to
  // the level the new cursor calls for: first the overflow's events of
  // the cursor's L3 page, then the slot holding the cursor at each far
  // level, which is occupied only when the cursor entered that slot's page.
  cursor_ = when;
  pull_overflow(((when >> kOverflowShift) + 1) << kOverflowShift);
  for (int level = kFarLevels - 1; level >= 0; --level) {
    refile(level, far_slot(level, when));
  }
  // Then the slot holding the next block, which the near ring now covers.
  // A level-1 slot is that block alone. A level-2 or -3 slot is re-filed
  // whole; its events past the next block go back into it.
  const Time next = ((when >> kBlockBits) + 1) << kBlockBits;
  const int level = far_level(next);
  if (level == kFarLevels) {
    pull_overflow(next + kBlock);
  } else {
    refile(level, far_slot(level, next));
  }
}

void EventQueue::refile(int level, std::uint32_t slot) {
  std::uint32_t& head = far_[level][slot];
  if (head == kNil) return;
  const std::uint32_t first = head;
  const std::uint32_t last = node(first).prev;
  head = kNil;
  clear_bit(far_bits_[level], slot);
  // In list order: equal times keep their push order in the slot they
  // land in, which holds none of those times yet.
  for (std::uint32_t h = first;;) {
    const std::uint32_t next = node(h).next;
    ++work_.refiles;
    file(h);
    if (h == last) break;
    h = next;
  }
}

void EventQueue::pull_overflow(Time end) {
  // In key order: time, then push order.
  while (!overflow_.empty() && overflow_.begin()->first < end) {
    const std::uint32_t idx = overflow_.begin()->second;
    overflow_.erase(overflow_.begin());
    ++work_.refiles;
    file(idx);
  }
}

}  // namespace planck::sim
