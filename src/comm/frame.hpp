// Owned frame storage for the comm runtime.
//
// A payload travels as one owned block of memory. The producer packs into
// a Buffer taken from its BufferPool; Comm::send moves the buffer into the
// destination mailbox; the receiver gets it back as a read-only Frame. The
// block is shared by reference, never copied: when the last reference
// drops (the consumer's Frame, a queued duplicate, the pristine copy a
// corrupt rule keeps), it returns to the pool it came from, so a steady
// stream reuses the same few blocks per (sender, edge).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>

#include "common/check.hpp"

namespace ppstap::comm {

namespace detail {
struct Block;
struct PoolState;
}  // namespace detail

/// A frame's payload storage, writable by its one owner: the producer packs
/// into it, then moves it into Comm::send. Page-aligned, and not cleared
/// when reused. Taken from a BufferPool (its storage returns there once the
/// last reference drops) or standalone (freed instead).
class Buffer {
 public:
  Buffer() = default;
  /// Standalone storage for `bytes` bytes.
  explicit Buffer(std::size_t bytes);

  std::size_t size() const;
  std::byte* data();
  /// The payload as elements of trivially copyable T.
  template <typename T>
  std::span<T> as() {
    static_assert(std::is_trivially_copyable_v<T>);
    return {reinterpret_cast<T*>(data()), size() / sizeof(T)};
  }

 private:
  friend class BufferPool;
  friend class Frame;
  explicit Buffer(std::shared_ptr<detail::Block> b) : block_(std::move(b)) {}
  std::shared_ptr<detail::Block> block_;
};

/// A delivered frame: a read-only view of the payload the sender packed.
/// Dropping the last Frame over a block returns it to the sender's pool.
class Frame {
 public:
  Frame() = default;
  /// Seal a packed buffer: its storage becomes read-only.
  explicit Frame(Buffer&& packed) : block_(std::move(packed.block_)) {}

  std::size_t size() const;
  bool empty() const { return size() == 0; }
  const std::byte* data() const;
  /// The payload as elements of trivially copyable T; checks the byte
  /// count is a multiple of sizeof(T).
  template <typename T>
  std::span<const T> as() const {
    static_assert(std::is_trivially_copyable_v<T>);
    PPSTAP_CHECK(size() % sizeof(T) == 0,
                 "received byte count not a multiple of element size");
    return {reinterpret_cast<const T*>(data()), size() / sizeof(T)};
  }
  /// A writable copy in fresh storage from the same pool.
  Buffer clone() const;

 private:
  std::shared_ptr<const detail::Block> block_;
};

/// Recycled frame storage for one (sender, edge): take() hands out the
/// best-fitting free block, allocating only when none is large enough.
/// Thread-safe — consumers return blocks from their own threads — and safe
/// to destroy while frames are in flight (their blocks are freed on return).
class BufferPool {
 public:
  BufferPool();

  Buffer take(std::size_t bytes);

  struct Stats {
    std::uint64_t allocated = 0;  ///< takes served by a fresh allocation
    std::uint64_t reused = 0;     ///< takes served by a returned block
    std::size_t free = 0;         ///< blocks currently back in the pool
  };
  Stats stats() const;

 private:
  std::shared_ptr<detail::PoolState> state_;
};

}  // namespace ppstap::comm
