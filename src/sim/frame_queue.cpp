#include "sim/frame_queue.hpp"

#include <new>
#include <utility>

namespace planck::sim {

FramePool::Block* FramePool::carve() {
  static_assert(alignof(Block) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  const std::size_t slot = carved_ % kChunkBlocks;
  if (slot == 0) {
    // Raw storage: a block is constructed, and its pages touched, only
    // when it is carved.
    chunks_.emplace_back(new std::byte[kChunkBlocks * sizeof(Block)]);
  }
  ++carved_;
  return ::new (chunks_.back().get() + slot * sizeof(Block)) Block;
}

FrameQueue::FrameQueue(FrameQueue&& other) noexcept
    : pool_(other.pool_),
      head_(std::exchange(other.head_, nullptr)),
      tail_(std::exchange(other.tail_, nullptr)),
      head_pos_(std::exchange(other.head_pos_, 0)),
      tail_pos_(std::exchange(other.tail_pos_, 0)),
      size_(std::exchange(other.size_, 0)) {}

void FrameQueue::clear() {
  Block* block = head_;
  head_ = tail_ = nullptr;
  size_ = 0;
  while (block != nullptr) {
    Block* next = block->next;
    pool_->give(block);
    block = next;
  }
}

}  // namespace planck::sim
