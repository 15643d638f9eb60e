#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace planck::sim {

/// Identifier of a scheduled event; usable to cancel it. Zero is never a
/// valid id. Ids are generation-tagged: cancelling an id whose event already
/// ran (or was already cancelled) is a documented safe no-op, so callers
/// never need to track whether a timer fired before cancelling it.
using EventId = std::uint64_t;

/// The simulator's scheduler: a timing wheel backed by a generation-tagged
/// slab, so schedule, cancel and pop are all O(1). Every wheel slot is a
/// circular doubly-linked list named by one 32-bit head (the head's `prev`
/// is the tail), so cancel() unlinks its node and returns it to the free
/// list at once: the slab holds only live events plus the one executing.
///
/// Geometry (nanosecond timestamps; a "block" is 8,192 ns):
///   near ring 16384 slots x 1 ns     — the cursor's block and the next
///   far ring    256 slots x 1 block  — every later block, slot = block
///                                      mod 256, one "round" per 256 blocks
///
/// An event at most one block ahead of the cursor's block goes straight
/// into the near ring slot it pops from; that is every link delivery
/// (1,231 ns of serialization plus 5 us of propagation) and every end of
/// serialization. A later event is appended to the far slot of its block,
/// one list holding, in push order, the events of every round that maps
/// to the slot, so a far push or cancel is an O(1) link or unlink. When
/// the cursor enters a new block, run_top moves the next block's events
/// out of its far slot into the near ring (and, after a jump, the cursor's
/// own block's too), leaving later rounds in place, before the popped
/// event runs; so every event always sits where a push at that moment
/// would file it. A peek of an empty near ring reads the far slots in
/// block order from two blocks past the cursor's and takes this round's
/// earliest event, or else the earliest far event overall. Occupancy
/// bitmaps make "find the next non-empty slot" a couple of word scans.
///
/// Determinism: events pop in (time, push-order) order exactly — FIFO at
/// equal timestamps — which discrete-event simulations rely on. Events of
/// one timestamp always share one slot (the filing depends on nothing but
/// the time and the cursor), lists append in push order, and a re-file
/// walks its far slot in list order; so no event carries a sequence
/// number. See DESIGN.md "Simulation engine".
///
/// Events come in three kinds:
///  - DeliverPacket: a first-class typed event for link delivery — the
///    dominant event class — holding the Packet directly in the slab node.
///    One copy in at schedule time, executed in place at pop, no
///    type-erasure round trip.
///  - Call: a typed (function-pointer, target, aux) event for small
///    high-frequency events: ends of serialization, NIC stalls, timers.
///  - Callback: a std::function (the general-purpose path), rare. It sits
///    in the node beside the other two payloads, so a node stays 128
///    bytes: two cache lines.
///
/// Timestamps must not move backwards: pushing earlier than the last popped
/// event's time clamps to it (the Simulation driver already guarantees
/// monotonicity by clamping to now()).
class EventQueue {
 public:
  // Callbacks are at most 0.03% of events, so a closure too big for
  // std::function's local buffer may take a heap allocation.
  using Callback = std::function<void()>;
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

  /// Cancels a pending event, destroys its closure if it has one, and
  /// frees its slab node. O(1). Safe no-op if the event already ran, was
  /// already cancelled, or the id is invalid.
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

  /// The wheel's work beyond filing each event once, exact. All three
  /// happen only on the far ring's paths: a push more than one block
  /// ahead, the re-file on entering a block, and a peek of an empty near
  /// ring.
  struct WheelWork {
    std::uint64_t far_files = 0;   // pushes filed in the far ring
    std::uint64_t refiles = 0;     // far events moved into the near ring
                                   // as the cursor advanced
    std::uint64_t far_walked = 0;  // far-ring nodes a peek or a re-file
                                   // visited without moving them near
  };
  const WheelWork& wheel_work() const { return work_; }

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
  /// directly; when the memo lies past the cursor's block, the re-files
  /// that entering its block calls for run first.
  void run_top(Time* when = nullptr);

 private:
  // Single-writer by design: the wheel and its slab belong to one
  // engine thread; cross-partition sends must go through a mailbox,
  // never this queue (DESIGN.md section 12).

  // --- geometry -----------------------------------------------------------
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint32_t kNotFound = 0xffffffffu;
  static constexpr int kBlockBits = 13;  // a block: 8,192 ns
  // The near ring: one-nanosecond slots for two blocks.
  static constexpr std::uint32_t kNearSlots = 2u << kBlockBits;
  static constexpr int kNearWords = kNearSlots / 64;
  // The far ring: one-block slots, one round per 256 blocks.
  static constexpr std::uint32_t kFarSlots = 256;
  static constexpr int kFarWords = kFarSlots / 64;

  enum class Kind : std::uint8_t { kCallback, kPacket, kCall };
  enum class State : std::uint8_t { kFree, kPending, kExecuting };

  struct DeliverPacket {
    PacketFn fn;
    void* target;
    net::Packet packet;
  };
  struct Call {
    CallFn fn;
    void* target;
  };

  struct alignas(64) Node {
    Time when = 0;
    std::uint32_t gen = 1;      // bumped on free; stale ids cancel as no-ops
    std::uint32_t next = kNil;  // slot ring / free list link
    std::uint32_t prev = kNil;  // slot ring back link, for O(1) unlink
    std::uint32_t aux = 0;      // a typed event's aux
    State state = State::kFree;
    Kind kind = Kind::kCallback;
    // The active member follows `kind`; the queue constructs and
    // destroys a Callback explicitly (DeliverPacket and Call are trivial).
    union Payload {
      DeliverPacket dp;
      Call call;
      Callback cb;
      Payload() {}   // NOLINT(modernize-use-equals-default)
      ~Payload() {}  // NOLINT(modernize-use-equals-default)
    } u;
  };
  // A 32-byte header and the largest payload, a packet delivery: two
  // cache lines.
  static_assert(sizeof(Node) == 128);

  // --- slab ---------------------------------------------------------------
  // Chunked so node addresses stay stable while an event executes in place
  // (the running event may push, growing the slab). A chunk is raw storage:
  // a node is constructed, and its page touched, only when first handed
  // out, so a chunk's unused tail costs no resident memory.
  union NodeSlot {
    Node node;
    NodeSlot() {}   // NOLINT(modernize-use-equals-default)
    ~NodeSlot() {}  // NOLINT(modernize-use-equals-default)
  };
  static constexpr std::uint32_t kChunkBits = 9;  // 512 nodes per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  Node& node(std::uint32_t idx) {
    return chunks_[idx >> kChunkBits][idx & (kChunkSize - 1)].node;
  }

  std::uint32_t alloc_node();
  void free_node(std::uint32_t idx);

  // --- wheel mechanics ----------------------------------------------------
  static std::uint32_t near_slot(Time when) {
    return static_cast<std::uint32_t>(when) & (kNearSlots - 1);
  }
  static std::uint32_t far_slot(Time block) {  // block = time >> kBlockBits
    return static_cast<std::uint32_t>(block) & (kFarSlots - 1);
  }
  // True when `when` (never before the cursor) lies past the near ring,
  // in the far ring.
  bool is_far(Time when) const {
    return (when >> kBlockBits) - (cursor_ >> kBlockBits) > 1;
  }

  // A push: prepare() allocates a node and stamps its time (clamped to the
  // cursor), kind and aux; commit() files it and returns its id.
  std::uint32_t prepare(Time when, Kind kind, std::uint32_t aux);
  EventId commit(std::uint32_t idx);
  // Files a pending node where a push at this moment belongs; false when
  // that is the far ring.
  bool file(std::uint32_t idx);
  void link(std::uint32_t& head, std::uint64_t* bits, std::uint32_t slot,
            std::uint32_t idx);
  void unlink(std::uint32_t& head, std::uint64_t* bits, std::uint32_t slot,
              std::uint32_t idx);
  void unlink(std::uint32_t idx);  // remove a pending node from its slot
  std::uint32_t peek();     // earliest live node; cursor_ untouched
  std::uint32_t far_min();  // peek() when the near ring is empty
  // Moves cursor_ into a new block and re-files the far events the near
  // ring now covers (DESIGN.md section 6).
  void enter_block(Time when);
  // Moves block `block`'s events out of its far slot into the near ring,
  // in list order; later rounds stay.
  void refile(Time block);

  std::vector<std::unique_ptr<NodeSlot[]>> chunks_;
  std::uint32_t node_count_ = 0;
  std::uint32_t free_head_ = kNil;

  std::uint32_t near_[kNearSlots];
  std::uint32_t far_[kFarSlots];
  std::uint64_t near_bits_[kNearWords] = {};
  std::uint64_t far_bits_[kFarWords] = {};

  // Time of the last popped event. Only run_top() moves it: next_time() is
  // a pure peek, so probing the queue (e.g. run_until breaking on a far
  // deadline) never drags the push-clamp floor forward.
  Time cursor_ = 0;
  std::uint32_t cached_ = kNil;  // peek() memo; cleared by an earlier
                                 // push, by cancelling it, and by pop
  Time cached_when_ = 0;         // when of the cached node (cheap compare)
  std::size_t live_ = 0;
  Executed executed_;
  WheelWork work_;
};

}  // namespace planck::sim
