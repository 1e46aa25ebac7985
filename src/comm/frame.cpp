#include "comm/frame.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <new>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

namespace ppstap::comm {

namespace detail {

struct PoolState {
  std::mutex mu;
  std::vector<std::unique_ptr<Block>> free;
  std::uint64_t allocated = 0;
  std::uint64_t reused = 0;
};

// Block storage is mapped pages, not heap memory: the pool is the cache, and
// a freed block goes straight back to the system. Frames are large and live
// across many allocations on other threads; from the heap they fragmented
// malloc's per-thread arenas, and a pipeline run's peak RSS grew by a
// third over a series of runs.
struct Block {
  explicit Block(std::size_t bytes) : capacity(round_to_pages(bytes)) {
    if (capacity == 0) return;
    void* m = mmap(nullptr, capacity, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (m == MAP_FAILED) throw std::bad_alloc();
    mem = static_cast<std::byte*>(m);
  }
  ~Block() {
    if (mem != nullptr) munmap(mem, capacity);
  }
  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;
  static std::size_t round_to_pages(std::size_t bytes) {
    static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return (bytes + page - 1) / page * page;
  }
  std::byte* mem = nullptr;  // page-aligned
  std::size_t capacity;
  std::size_t size = 0;
  std::weak_ptr<PoolState> pool;  // empty for standalone storage
};

// The last reference to a block dropped: back to its pool, or freed when
// it has none (standalone, or the pool's owner is gone).
void release(Block* b) {
  if (auto pool = b->pool.lock()) {
    std::lock_guard<std::mutex> lock(pool->mu);
    pool->free.emplace_back(b);
  } else {
    delete b;
  }
}

// The best-fitting free block of `pool` (null: standalone storage), else a
// fresh one. A pool whose free blocks are all too small gives up its
// smallest, so it never hoards blocks no request fits.
std::shared_ptr<Block> take(const std::shared_ptr<PoolState>& pool,
                            std::size_t bytes) {
  std::unique_ptr<Block> b;
  if (pool) {
    std::lock_guard<std::mutex> lock(pool->mu);
    auto& fl = pool->free;
    auto best = fl.end();
    for (auto it = fl.begin(); it != fl.end(); ++it)
      if ((*it)->capacity >= bytes &&
          (best == fl.end() || (*it)->capacity < (*best)->capacity))
        best = it;
    if (best != fl.end()) {
      b = std::move(*best);
      fl.erase(best);
      ++pool->reused;
    } else {
      if (!fl.empty())
        fl.erase(std::min_element(fl.begin(), fl.end(),
                                  [](const auto& x, const auto& y) {
                                    return x->capacity < y->capacity;
                                  }));
      ++pool->allocated;
    }
  }
  if (!b) {
    b = std::make_unique<Block>(bytes);
    b->pool = pool;
  }
  b->size = bytes;
  return {b.release(), &release};
}

}  // namespace detail

Buffer::Buffer(std::size_t bytes) : block_(detail::take(nullptr, bytes)) {}
std::size_t Buffer::size() const { return block_ ? block_->size : 0; }
std::byte* Buffer::data() { return block_ ? block_->mem : nullptr; }

std::size_t Frame::size() const { return block_ ? block_->size : 0; }
const std::byte* Frame::data() const { return block_ ? block_->mem : nullptr; }

Buffer Frame::clone() const {
  if (!block_) return {};
  Buffer out(detail::take(block_->pool.lock(), size()));
  if (size() > 0) std::memcpy(out.data(), data(), size());
  return out;
}

BufferPool::BufferPool() : state_(std::make_shared<detail::PoolState>()) {}

Buffer BufferPool::take(std::size_t bytes) {
  return Buffer(detail::take(state_, bytes));
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return {state_->allocated, state_->reused, state_->free.size()};
}

}  // namespace ppstap::comm
