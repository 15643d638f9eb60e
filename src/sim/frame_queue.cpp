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

void FrameQueue::truncate(std::size_t keep) {
  if (size_ <= keep) return;
  Block* rest = head_;  // first block to give back
  if (keep == 0) {
    head_ = tail_ = nullptr;
  } else {
    // The last kept frame sits `head_pos_ + keep - 1` slots past the start
    // of head_, counting across the chain.
    std::size_t last = head_pos_ + keep - 1;
    tail_ = head_;
    for (; last >= kBlockFrames; last -= kBlockFrames) tail_ = tail_->next;
    tail_pos_ = static_cast<std::uint32_t>(last + 1);
    rest = tail_->next;
    tail_->next = nullptr;
  }
  size_ = static_cast<std::uint32_t>(keep);
  while (rest != nullptr) {
    Block* next = rest->next;
    pool_->give(rest);
    rest = next;
  }
}

}  // namespace planck::sim
