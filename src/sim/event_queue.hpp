#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/inline_function.hpp"
#include "sim/time.hpp"

namespace planck::sim {

/// Identifier of a scheduled event; usable to cancel it. Zero is never a
/// valid id. Ids are generation-tagged: cancelling an id whose event already
/// ran (or was already cancelled) is a documented safe no-op, so callers
/// never need to track whether a timer fired before cancelling it.
using EventId = std::uint64_t;

/// The simulator's scheduler: a hierarchical timing wheel backed by a
/// generation-tagged slab, so schedule, cancel and pop are all O(1).
/// Every wheel slot is a doubly-linked list, so cancel() unlinks its node
/// and returns it to the free list at once: the slab holds only live
/// events plus the one executing.
///
/// Geometry (nanosecond timestamps):
///   level 0   8192 slots x 1 ns      — the "near" wheel, one slot per ns
///   level 1    256 slots x 8.192 us  — covers ~2.1 ms
///   level 2    256 slots x ~2.1 ms   — covers ~537 ms
///   level 3    256 slots x ~537 ms   — covers ~137 s
///   overflow   std::map on (time, push order) — events further out than
///              ~137 s
///
/// An event lands in the lowest level whose current page contains its
/// timestamp; when the cursor crosses into a far slot, that slot's events
/// cascade one level down (each event cascades at most three times over its
/// lifetime, so scheduling stays amortized O(1)). Per-level occupancy
/// bitmaps make "find the next non-empty slot" a couple of word scans.
///
/// Determinism: events pop in (time, push-order) order exactly — FIFO at
/// equal timestamps — which discrete-event simulations rely on. A level-0
/// slot spans a single nanosecond, so a slot's list holds only equal-time
/// events; lists append in push order and cascades preserve relative order,
/// which keeps the FIFO invariant through every migration. See DESIGN.md
/// "Simulation engine".
///
/// Events come in three kinds:
///  - Callback: type-erased closure (the general-purpose path).
///  - DeliverPacket: a first-class typed event for link delivery — the
///    dominant event class — holding the Packet directly in the slab node.
///    One copy in at schedule time, executed in place at pop, no
///    type-erasure round trip. Slab nodes (and thus Packet slots) are
///    pooled and recycled through a free list.
///  - Call: a typed (function-pointer, target, aux) event for small
///    high-frequency events like port drain completions.
///
/// Timestamps must not move backwards: pushing earlier than the last popped
/// event's time clamps to it (the Simulation driver already guarantees
/// monotonicity by clamping to now()).
class EventQueue {
 public:
  // 136 bytes of inline storage so closures that carry an 80-byte Packet
  // never heap-allocate: the controller's ARP inject (Packet, switch, port)
  // is 96 bytes and the switch's sFlow sample (Packet, std::function
  // handler, ports, rate) 128.
  using Callback = InlineFunction<void(), 136>;
  /// Typed packet-delivery handler: (target, aux, packet). `aux` is a free
  /// 32-bit payload — links pass their delivery epoch, switches a port.
  using PacketFn = void (*)(void* target, std::uint32_t aux,
                            const net::Packet& packet);
  /// Typed small-event handler: (target, aux).
  using CallFn = void (*)(void* target, std::uint32_t aux);

  EventQueue();
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `cb` at absolute time `when`. Returns an id for cancel().
  EventId push(Time when, Callback cb);

  /// Schedules a typed packet delivery: at `when`, `fn(target, aux, packet)`
  /// runs with the packet stored (and recycled) in the scheduler's slab.
  EventId push_packet(Time when, void* target, std::uint32_t aux, PacketFn fn,
                      const net::Packet& packet);

  /// Schedules a typed small event: at `when`, `fn(target, aux)` runs.
  EventId push_call(Time when, void* target, std::uint32_t aux, CallFn fn);

  /// Cancels a pending event and frees its slab node. O(1). Safe no-op if
  /// the event already ran, was already cancelled, or the id is invalid.
  void cancel(EventId id);

  /// True when no runnable (non-cancelled) event remains. O(1).
  bool empty() const { return live_ == 0; }

  /// Number of live (pending, non-cancelled) events.
  std::size_t size() const { return live_; }

  /// Events executed so far, by kind. They sum to every pop of run_top.
  struct Executed {
    std::uint64_t packets = 0;    // typed packet deliveries (push_packet)
    std::uint64_t calls = 0;      // typed calls (push_call)
    std::uint64_t callbacks = 0;  // type-erased callbacks (push)
  };
  const Executed& executed() const { return executed_; }

  /// Slab nodes ever allocated, i.e. the slab's high-water mark. Cancel
  /// frees at once, so this tracks the peak of size() plus the event
  /// executing at that moment.
  std::size_t slab_nodes() const { return node_count_; }

  /// Time of the earliest live event. Precondition: !empty(). A pure peek:
  /// probing never affects where later pushes may land.
  Time next_time();

  /// Pops the earliest live event and executes it in place (no move of the
  /// payload out of the slab). Precondition: !empty(). Reentrant: the
  /// executed event may push and cancel freely. Pops next_time()'s memo
  /// directly when it names a near-wheel node.
  void run_top(Time* when = nullptr);

 private:
  // Single-writer by design: the wheel and its slab belong to one
  // engine thread; cross-partition sends must go through a mailbox,
  // never this queue (DESIGN.md section 12).

  // --- geometry -----------------------------------------------------------
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint32_t kNotFound = 0xffffffffu;
  static constexpr int kL0Bits = 13;  // 8192 one-nanosecond slots
  static constexpr std::uint32_t kL0Slots = 1u << kL0Bits;
  static constexpr int kL0Words = kL0Slots / 64;
  static constexpr int kFarBits = 8;  // 256 slots per far wheel
  static constexpr std::uint32_t kFarSlots = 1u << kFarBits;
  static constexpr int kFarWords = kFarSlots / 64;
  static constexpr int kFarLevels = 3;
  // Bit position where each far level's slot index starts; level i spans
  // [kFarShift[i], kFarShift[i] + kFarBits).
  static constexpr int kFarShift[kFarLevels] = {13, 21, 29};
  static constexpr int kOverflowShift = 37;  // beyond the L3 page: map
  // Node::level of an event in the overflow map; 0 is the near wheel and
  // 1..kFarLevels the far wheels.
  static constexpr auto kOverflowLevel =
      static_cast<std::uint8_t>(kFarLevels + 1);

  enum class Kind : std::uint8_t { kCallback, kPacket, kCall };
  enum class State : std::uint8_t { kFree, kPending, kExecuting };

  struct DeliverPacket {
    PacketFn fn;
    void* target;
    std::uint32_t aux;
    net::Packet packet;
  };
  struct Call {
    CallFn fn;
    void* target;
    std::uint32_t aux;
  };

  struct Node {
    Time when = 0;
    std::uint64_t seq = 0;     // global push order; the FIFO tiebreak
    std::uint32_t gen = 1;     // bumped on free; stale ids cancel as no-ops
    std::uint32_t next = kNil; // slot list / free list link
    std::uint32_t prev = kNil; // slot list back link, for O(1) unlink
    State state = State::kFree;
    Kind kind = Kind::kCallback;
    std::uint8_t level = 0;    // which wheel (or the overflow) holds it
    union Payload {
      Callback cb;
      DeliverPacket dp;
      Call call;
      Payload() {}   // NOLINT(modernize-use-equals-default)
      ~Payload() {}  // NOLINT(modernize-use-equals-default)
    } u;
  };
  // The list links and tags fill the header's padding: a node stays one
  // 32-byte header plus its payload.
  static_assert(sizeof(Node) == 32 + sizeof(Node::Payload));

  struct Slot {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  // --- slab ---------------------------------------------------------------
  // Chunked so node addresses stay stable while an event executes in place
  // (the running event may push, growing the slab).
  static constexpr std::uint32_t kChunkBits = 9;  // 512 nodes per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  Node& node(std::uint32_t idx) {
    return chunks_[idx >> kChunkBits][idx & (kChunkSize - 1)];
  }

  std::uint32_t alloc_node();
  void free_node(std::uint32_t idx);
  static void destroy_payload(Node& n);

  // --- wheel mechanics ----------------------------------------------------
  std::uint32_t prepare(Time when);  // alloc + stamp (when, seq)
  void insert(std::uint32_t idx);    // place a pending node by its time
  void append(Slot& slot, std::uint64_t* bits, std::uint32_t slot_index,
              std::uint32_t idx);
  void unlink(std::uint32_t idx);    // remove a wheel node from its slot
  std::uint32_t find_next();         // earliest live node; COMMITS cursor_
  std::uint32_t peek();              // earliest live node; cursor_ untouched
  bool advance();                    // cascade the next far slot / overflow
  void cascade(int level, std::uint32_t slot_index);

  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::uint32_t node_count_ = 0;
  std::uint32_t free_head_ = kNil;

  Slot l0_[kL0Slots];
  Slot far_[kFarLevels][kFarSlots];
  std::uint64_t l0_bits_[kL0Words] = {};
  std::uint64_t far_bits_[kFarLevels][kFarWords] = {};
  // Events past the L3 page: node index by (when, seq), so cancel erases
  // one at once and the first entry is the earliest.
  std::map<std::pair<Time, std::uint64_t>, std::uint32_t> overflow_;

  // Time of the last popped event. Only run_top() moves it: next_time() is
  // a pure peek, so probing the queue (e.g. run_until breaking on a far
  // deadline) never drags the push-clamp floor forward.
  Time cursor_ = 0;
  std::uint32_t cached_ = kNil;  // peek() memo; cleared by an earlier
                                 // push, by cancelling it, and by pop
  Time cached_when_ = 0;         // when of the cached node (cheap compare)
  std::uint64_t seq_ = 0;
  std::size_t live_ = 0;
  Executed executed_;
};

}  // namespace planck::sim
