#include "sim/event_queue.hpp"

#include <cassert>
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

EventQueue::EventQueue() = default;

EventQueue::~EventQueue() {
  // Pending nodes still own payloads; release them before the chunks go
  // away.
  for (std::uint32_t i = 0; i < node_count_; ++i) {
    Node& n = node(i);
    if (n.state == State::kPending) destroy_payload(n);
  }
}

// --- slab -----------------------------------------------------------------

std::uint32_t EventQueue::alloc_node() {
  if (free_head_ != kNil) {
    const std::uint32_t idx = free_head_;
    free_head_ = node(idx).next;
    return idx;
  }
  const std::uint32_t idx = node_count_;
  if ((idx & (kChunkSize - 1)) == 0) {
    chunks_.emplace_back(new Node[kChunkSize]);
  }
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

void EventQueue::destroy_payload(Node& n) {
  switch (n.kind) {
    case Kind::kCallback:
      n.u.cb.~Callback();
      break;
    case Kind::kPacket:
      n.u.dp.~DeliverPacket();
      break;
    case Kind::kCall:
      n.u.call.~Call();
      break;
  }
}

// --- scheduling -----------------------------------------------------------

std::uint32_t EventQueue::prepare(Time when) {
  if (when < cursor_) when = cursor_;  // time never moves backwards
  if (cached_ != kNil && when < cached_when_) {
    cached_ = kNil;  // the new event beats the memoized minimum
  }
  const std::uint32_t idx = alloc_node();
  Node& n = node(idx);
  n.when = when;
  n.seq = ++seq_;
  n.next = kNil;
  n.state = State::kPending;
  return idx;
}

EventId EventQueue::push(Time when, Callback cb) {
  const std::uint32_t idx = prepare(when);
  Node& n = node(idx);
  n.kind = Kind::kCallback;
  ::new (&n.u.cb) Callback(std::move(cb));
  insert(idx);
  ++live_;
  return (static_cast<EventId>(idx + 1) << 32) | n.gen;
}

EventId EventQueue::push_packet(Time when, void* target, std::uint32_t aux,
                                PacketFn fn, const net::Packet& packet) {
  const std::uint32_t idx = prepare(when);
  Node& n = node(idx);
  n.kind = Kind::kPacket;
  ::new (&n.u.dp) DeliverPacket{fn, target, aux, packet};
  insert(idx);
  ++live_;
  return (static_cast<EventId>(idx + 1) << 32) | n.gen;
}

EventId EventQueue::push_call(Time when, void* target, std::uint32_t aux,
                              CallFn fn) {
  const std::uint32_t idx = prepare(when);
  Node& n = node(idx);
  n.kind = Kind::kCall;
  ::new (&n.u.call) Call{fn, target, aux};
  insert(idx);
  ++live_;
  return (static_cast<EventId>(idx + 1) << 32) | n.gen;
}

void EventQueue::append(Slot& slot, std::uint64_t* bits,
                        std::uint32_t slot_index, std::uint32_t idx) {
  Node& n = node(idx);
  n.next = kNil;
  n.prev = slot.tail;
  if (slot.head == kNil) {
    slot.head = idx;
    set_bit(bits, slot_index);
  } else {
    node(slot.tail).next = idx;
  }
  slot.tail = idx;
}

void EventQueue::insert(std::uint32_t idx) {
  Node& n = node(idx);
  const Time when = n.when;
  if ((when >> kL0Bits) == (cursor_ >> kL0Bits)) {
    const auto s = static_cast<std::uint32_t>(when) & (kL0Slots - 1);
    n.level = 0;
    append(l0_[s], l0_bits_, s, idx);
    return;
  }
  for (int level = 0; level < kFarLevels; ++level) {
    const int shift = kFarShift[level];
    if ((when >> (shift + kFarBits)) == (cursor_ >> (shift + kFarBits))) {
      const auto s = static_cast<std::uint32_t>(when >> shift) &
                     (kFarSlots - 1);
      n.level = static_cast<std::uint8_t>(level + 1);
      append(far_[level][s], far_bits_[level], s, idx);
      return;
    }
  }
  n.level = kOverflowLevel;
  overflow_.emplace(std::pair{when, n.seq}, idx);
}

void EventQueue::unlink(std::uint32_t idx) {
  // A wheel node's slot follows from its level and time: insert() filed it
  // by exactly these bits, and a cascade re-files (and re-tags) it.
  Node& n = node(idx);
  Slot* slot = nullptr;
  std::uint64_t* bits = nullptr;
  std::uint32_t s = 0;
  if (n.level == 0) {
    s = static_cast<std::uint32_t>(n.when) & (kL0Slots - 1);
    slot = &l0_[s];
    bits = l0_bits_;
  } else {
    const int level = n.level - 1;
    s = static_cast<std::uint32_t>(n.when >> kFarShift[level]) &
        (kFarSlots - 1);
    slot = &far_[level][s];
    bits = far_bits_[level];
  }
  PLANCK_CONTRACT(n.prev == kNil ? slot->head == idx : node(n.prev).next == idx,
                  "an unlinked node's predecessor (or its slot's head) "
                  "names it");
  PLANCK_CONTRACT(n.next == kNil ? slot->tail == idx : node(n.next).prev == idx,
                  "an unlinked node's successor (or its slot's tail) "
                  "names it");
  if (n.prev == kNil) {
    slot->head = n.next;
  } else {
    node(n.prev).next = n.next;
  }
  if (n.next == kNil) {
    slot->tail = n.prev;
  } else {
    node(n.next).prev = n.prev;
  }
  if (slot->head == kNil) clear_bit(bits, s);
}

// --- cancellation ---------------------------------------------------------

void EventQueue::cancel(EventId id) {
  const auto idx_plus = static_cast<std::uint32_t>(id >> 32);
  if (idx_plus == 0 || idx_plus > node_count_) return;
  const std::uint32_t idx = idx_plus - 1;
  Node& n = node(idx);
  if (n.gen != static_cast<std::uint32_t>(id)) return;  // fired: safe no-op
  if (n.state != State::kPending) return;  // executing right now: no-op
  destroy_payload(n);  // release captured resources promptly
  --live_;
  if (cached_ == idx) cached_ = kNil;  // any other memo is still the minimum
  if (n.level == kOverflowLevel) {
    overflow_.erase(std::pair{n.when, n.seq});
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
  // A near-wheel memo is the head of the first occupied level-0 slot,
  // exactly what find_next would scan for; a far or overflow memo still
  // needs find_next's cascade.
  std::uint32_t idx = cached_;
  if (idx != kNil && node(idx).level == 0) {
    cursor_ = node(idx).when;
  } else {
    idx = find_next();
  }
  assert(idx != kNil);
  Node& n = node(idx);
  if (when != nullptr) *when = n.when;

  // find_next always leaves its result at the head of a level-0 slot.
  assert(n.level == 0 && n.prev == kNil);
  unlink(idx);
  cached_ = kNil;
  --live_;
  n.state = State::kExecuting;  // cancel(own id) during execution: no-op

  // Execute in place: the chunked slab keeps `n` stable even if the event
  // pushes (growing the slab) while running.
  switch (n.kind) {
    case Kind::kCallback:
      ++executed_.callbacks;
      n.u.cb();
      break;
    case Kind::kPacket:
      ++executed_.packets;
      n.u.dp.fn(n.u.dp.target, n.u.dp.aux, n.u.dp.packet);
      break;
    case Kind::kCall:
      ++executed_.calls;
      n.u.call.fn(n.u.call.target, n.u.call.aux);
      break;
  }
  destroy_payload(n);
  free_node(idx);
}

std::uint32_t EventQueue::find_next() {
  assert(live_ > 0);
  for (;;) {
    // Cancel unlinks at once, so every occupied slot's head is live: the
    // first occupied near slot from the cursor holds the next event.
    const std::uint32_t s = scan_bits(l0_bits_, kL0Words,
                                      static_cast<std::uint32_t>(cursor_) &
                                          (kL0Slots - 1));
    if (s != kNotFound) {
      const std::uint32_t h = l0_[s].head;
      cursor_ = node(h).when;
      return h;
    }
    if (!advance()) return kNil;  // unreachable while live_ > 0
  }
}

std::uint32_t EventQueue::peek() {
  if (cached_ != kNil) return cached_;
  assert(live_ > 0);
  // A pure read of the earliest (when, seq): it never moves cursor_ and
  // never cascades live nodes, so probing the queue cannot affect where
  // later pushes land.
  //
  // Level containment makes this a short walk: every event resident in a
  // far level is strictly later than every event one level below (the
  // cursor entering a page cascades that page's slot first), so the first
  // level with an event holds the minimum, and within a level the first
  // occupied slot does.
  const std::uint32_t s = scan_bits(l0_bits_, kL0Words,
                                    static_cast<std::uint32_t>(cursor_) &
                                        (kL0Slots - 1));
  if (s != kNotFound) {
    // A level-0 slot spans one nanosecond and lists append in push order,
    // so the head is the slot's (when, seq) minimum.
    const std::uint32_t h = l0_[s].head;
    cached_ = h;
    cached_when_ = node(h).when;
    return h;
  }
  for (int level = 0; level < kFarLevels; ++level) {
    const int shift = kFarShift[level];
    const auto from = static_cast<std::uint32_t>(cursor_ >> shift) &
                      (kFarSlots - 1);
    const std::uint32_t fs = scan_bits(far_bits_[level], kFarWords, from);
    if (fs == kNotFound) continue;
    // A far slot spans many nanoseconds; walk it for the minimum.
    std::uint32_t best = far_[level][fs].head;
    for (std::uint32_t h = node(best).next; h != kNil; h = node(h).next) {
      const Node& a = node(h);
      const Node& b = node(best);
      if (a.when < b.when || (a.when == b.when && a.seq < b.seq)) best = h;
    }
    cached_ = best;
    cached_when_ = node(best).when;
    return best;
  }
  if (!overflow_.empty()) {
    const std::uint32_t idx = overflow_.begin()->second;
    cached_ = idx;
    cached_when_ = node(idx).when;
    return idx;
  }
  return kNil;  // unreachable while live_ > 0
}

bool EventQueue::advance() {
  // The near page is drained; cascade the next occupied far slot down one
  // level. The far slot covering the *current* position at each level is
  // always empty (it was cascaded when the cursor entered it), so scanning
  // from the current index inclusive is safe.
  for (int level = 0; level < kFarLevels; ++level) {
    const int shift = kFarShift[level];
    const auto from = static_cast<std::uint32_t>(cursor_ >> shift) &
                      (kFarSlots - 1);
    const std::uint32_t s = scan_bits(far_bits_[level], kFarWords, from);
    if (s == kNotFound) continue;
    // Jump the cursor to the base of that slot (lower-level indices reset
    // to zero) before re-bucketing, so insert() routes into the new page.
    const Time page_mask = (Time{1} << (shift + kFarBits)) - 1;
    cursor_ = (cursor_ & ~page_mask) | (static_cast<Time>(s) << shift);
    cascade(level, s);
    return true;
  }
  if (overflow_.empty()) return false;
  // Pull the next occupied L3 page out of the overflow map. Taking in
  // (when, seq) order keeps equal-time events in push order, preserving the
  // FIFO invariant through the re-bucketing.
  const Time page = overflow_.begin()->first.first >> kOverflowShift;
  if (page != (cursor_ >> kOverflowShift)) {
    cursor_ = page << kOverflowShift;
  }
  while (!overflow_.empty() &&
         (overflow_.begin()->first.first >> kOverflowShift) == page) {
    const std::uint32_t idx = overflow_.begin()->second;
    overflow_.erase(overflow_.begin());
    insert(idx);
  }
  return true;
}

void EventQueue::cascade(int level, std::uint32_t slot_index) {
  Slot& slot = far_[level][slot_index];
  std::uint32_t h = slot.head;
  slot.head = slot.tail = kNil;
  clear_bit(far_bits_[level], slot_index);
  // Re-bucketing in list order preserves the relative order of equal-time
  // events (lists are appended in push order), which is what keeps FIFO
  // ties exact across cascades.
  while (h != kNil) {
    const std::uint32_t next = node(h).next;
    insert(h);
    h = next;
  }
}

}  // namespace planck::sim
