#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "net/packet.hpp"

namespace planck::sim {

/// The frame memory of one Simulation, i.e. of one partition: fixed-size
/// blocks that every FrameQueue built on that Simulation takes and gives
/// back. Blocks are carved from larger chunks, so no block carries a
/// malloc header, and a drained block is reused by whichever queue of the
/// partition next needs one. The pool frees every chunk when it dies; a
/// queue never frees a block, so a queue and its pool may be destroyed in
/// either order.
class FramePool {
 public:
  /// Frames per block, chosen by measurement (DESIGN.md §6). Deep queues
  /// (a full monitor port holds ~3,900 frames) pay one `next` pointer per
  /// block; shallow ones (a host-facing port holding a frame or two) pay
  /// for the block's empty slots, which is what keeps the block small.
  static constexpr std::size_t kBlockFrames = 8;

  struct Block {
    Block* next = nullptr;  // next block of a queue, or of the free list
    net::Packet frames[kBlockFrames];
  };
  static_assert(std::is_trivially_destructible_v<Block>,
                "chunks are freed without running block destructors");

  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  /// A block with `next` cleared: the most recently given back one, else
  /// a fresh one carved from the current chunk.
  Block* take() {
    if (free_ == nullptr) return carve();
    Block* block = free_;
    free_ = block->next;
    block->next = nullptr;
    return block;
  }

  /// Returns a drained block for reuse by any queue of this pool.
  void give(Block* block) {
    block->next = free_;
    free_ = block;
  }

  /// Blocks carved so far: the high-water of blocks held by queues.
  std::size_t blocks() const { return carved_; }

 private:
  // Single-writer by design: the pool belongs to one Simulation, i.e. to
  // the thread running that partition; the parallel engine's serial phase
  // may also reach it (controller packet-outs) while every data thread
  // is parked (DESIGN.md section 14).
  static constexpr std::size_t kChunkBlocks = 128;  // ~83 KB per chunk

  Block* carve();

  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  Block* free_ = nullptr;
  std::size_t carved_ = 0;
};

/// A FIFO of frames stored in blocks from a FramePool. The queue holds a
/// block only while the block holds a frame: the tail takes one when the
/// last is full, the head gives one back when it has drained it, so an
/// idle queue holds no memory beyond this object.
class FrameQueue {
 public:
  explicit FrameQueue(FramePool& pool) : pool_(&pool) {}
  /// Moves the frames; `other` is left empty on the same pool.
  FrameQueue(FrameQueue&& other) noexcept;
  FrameQueue(const FrameQueue&) = delete;
  FrameQueue& operator=(const FrameQueue&) = delete;
  FrameQueue& operator=(FrameQueue&&) = delete;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// The oldest frame. Precondition: !empty().
  net::Packet& front() { return head_->frames[head_pos_]; }

  void push_back(const net::Packet& frame) {
    if (tail_ == nullptr) {
      head_ = tail_ = pool_->take();
      head_pos_ = tail_pos_ = 0;
    } else if (tail_pos_ == kBlockFrames) {
      tail_->next = pool_->take();
      tail_ = tail_->next;
      tail_pos_ = 0;
    }
    tail_->frames[tail_pos_++] = frame;
    ++size_;
  }

  /// Removes the oldest frame. Precondition: !empty().
  void pop_front() {
    if (--size_ == 0) {
      pool_->give(head_);  // the only block left: head_ == tail_
      head_ = tail_ = nullptr;
    } else if (++head_pos_ == kBlockFrames) {
      Block* drained = head_;
      head_ = head_->next;
      head_pos_ = 0;
      pool_->give(drained);
    }
  }

  /// Drops every frame and gives the blocks back to the pool.
  void clear();

 private:
  using Block = FramePool::Block;
  static constexpr auto kBlockFrames =
      static_cast<std::uint32_t>(FramePool::kBlockFrames);

  FramePool* pool_;
  Block* head_ = nullptr;       // block holding front(); null when empty
  Block* tail_ = nullptr;       // block holding the newest frame
  std::uint32_t head_pos_ = 0;  // front()'s slot in head_
  std::uint32_t tail_pos_ = 0;  // one past the newest frame's slot in tail_
  std::uint32_t size_ = 0;
};

}  // namespace planck::sim
