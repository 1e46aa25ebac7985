#include "common/parallel.hpp"

#include <pthread.h>

#include <algorithm>
#include <exception>
#include <vector>

#include "common/check.hpp"
#include "common/flops.hpp"

namespace ppstap {

namespace {

// One block of the partition and what its thread reports back.
struct Block {
  const std::function<void(index_t, index_t)>* fn = nullptr;
  index_t begin = 0;
  index_t end = 0;
  bool count = false;  // run under a FlopScope and report its count
  std::uint64_t flops = 0;
  std::exception_ptr error;
};

void run_block(Block& b) {
  try {
    if (b.count) {
      FlopScope scope;
      (*b.fn)(b.begin, b.end);
      b.flops = scope.count();
    } else {
      (*b.fn)(b.begin, b.end);
    }
  } catch (...) {
    b.error = std::current_exception();
  }
}

void* run_block_thread(void* arg) {
  run_block(*static_cast<Block*>(arg));
  return nullptr;
}

}  // namespace

void parallel_for_blocks(index_t threads, index_t total,
                         const std::function<void(index_t, index_t)>& fn) {
  PPSTAP_REQUIRE(threads >= 1, "need at least one thread");
  PPSTAP_REQUIRE(total >= 0, "iteration count must be nonnegative");
  if (total == 0) return;
  const index_t used = std::min(threads, total);
  if (used == 1) {
    fn(0, total);
    return;
  }

  // The flop counter is thread-local; when the caller is instrumented, each
  // worker runs under its own FlopScope and the counts fold back into the
  // caller after the join, so totals are thread-count invariant.
  const bool count_enabled = detail::flop_state().enabled;
  const index_t base = total / used;
  const index_t rem = total % used;
  std::vector<Block> blocks(static_cast<size_t>(used));
  for (index_t i = 0; i < used; ++i) {
    Block& b = blocks[static_cast<size_t>(i)];
    b.fn = &fn;
    b.begin = i * base + std::min(i, rem);
    b.end = b.begin + base + (i < rem ? 1 : 0);
    b.count = count_enabled && i > 0;
  }

  // Raw pthreads rather than std::thread: std::thread frees its launch state
  // on the new thread, and a thread's first malloc or free claims it a glibc
  // arena. A worker that runs allocation-free code therefore never claims
  // one, and per-call workers do not add arenas, each of which would keep
  // freed memory resident. A block whose thread cannot start runs here.
  std::vector<pthread_t> ids(static_cast<size_t>(used));
  std::vector<bool> started(static_cast<size_t>(used), false);
  for (index_t i = 1; i < used; ++i)
    started[static_cast<size_t>(i)] =
        pthread_create(&ids[static_cast<size_t>(i)], nullptr,
                       run_block_thread, &blocks[static_cast<size_t>(i)]) == 0;
  run_block(blocks[0]);
  for (index_t i = 1; i < used; ++i) {
    Block& b = blocks[static_cast<size_t>(i)];
    if (started[static_cast<size_t>(i)]) {
      pthread_join(ids[static_cast<size_t>(i)], nullptr);
    } else {
      b.count = false;  // counts straight into the caller's scope
      run_block(b);
    }
  }

  std::uint64_t worker_flops = 0;
  for (const Block& b : blocks) worker_flops += b.flops;
  count_flops(worker_flops);
  for (const Block& b : blocks)
    if (b.error) std::rethrow_exception(b.error);
}

}  // namespace ppstap
