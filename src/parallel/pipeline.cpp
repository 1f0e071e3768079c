#include "parallel/pipeline.hpp"

#include <algorithm>
#include <deque>

#include "parallel/thread_pool.hpp"
#include "util/check.hpp"
#include "util/thread_safety.hpp"

namespace marsit {

namespace {

std::atomic<std::uint64_t> g_arena_grows{0};

}  // namespace

void ScratchArena::reset() {
  for (auto& block : word_blocks_) {
    block.in_use = false;
  }
  for (auto& block : float_blocks_) {
    block.in_use = false;
  }
}

template <typename T>
std::span<T> ScratchArena::take(std::vector<Block<T>>& blocks,
                                std::size_t count) {
  // First-fit over the free blocks.  The stage bodies issue the same request
  // sequence every round, so after one warm round every take() hits.
  for (auto& block : blocks) {
    if (!block.in_use && block.data.size() >= count) {
      block.in_use = true;
      return std::span<T>{block.data.data(), count};
    }
  }
  g_arena_grows.fetch_add(1, std::memory_order_relaxed);
  // emplace_back may move existing Block structs; the moved std::vector
  // keeps its heap buffer, so spans handed out earlier stay valid.
  blocks.emplace_back();
  blocks.back().data.resize(count);
  blocks.back().in_use = true;
  return std::span<T>{blocks.back().data.data(), count};
}

std::span<std::uint64_t> ScratchArena::words(std::size_t count) {
  return take(word_blocks_, count);
}

std::span<float> ScratchArena::floats(std::size_t count) {
  return take(float_blocks_, count);
}

std::uint64_t ScratchArena::total_grows() {
  return g_arena_grows.load(std::memory_order_relaxed);
}

ScratchArena& this_thread_arena() {
  thread_local ScratchArena arena;
  return arena;
}

namespace {

/// Shared state of one run_chunk_pipeline invocation.  Tasks are identified
/// by id = stage * num_chunks + chunk; `deps` counts unmet dependencies.
struct PipelineState {
  Mutex mu;
  CondVar cv;
  /// ids whose dependencies are all met
  std::deque<std::size_t> ready MARSIT_GUARDED_BY(mu);
  /// remaining dependency count per id
  std::vector<std::uint8_t> deps MARSIT_GUARDED_BY(mu);
  /// tasks not yet finished
  std::size_t remaining MARSIT_GUARDED_BY(mu) = 0;
  std::size_t num_chunks = 0;  // immutable after setup
  std::size_t num_stages = 0;  // immutable after setup
};

/// Decrements the dependency count of (stage, chunk) and enqueues it when it
/// reaches zero.
void release_dependency(PipelineState& state, std::size_t stage,
                        std::size_t chunk) MARSIT_REQUIRES(state.mu) {
  const std::size_t id = stage * state.num_chunks + chunk;
  MARSIT_CHECK(state.deps[id] > 0) << "pipeline dependency underflow";
  if (--state.deps[id] == 0) {
    state.ready.push_back(id);
  }
}

/// Work loop run by every participant (pool workers and the caller): pop a
/// ready task, execute its stage body, release its successors, repeat until
/// every task has finished.  The mutex hand-off on completion is what gives
/// cross-stage writes their happens-before edge (TSan-clean by
/// construction).
void pipeline_worker(PipelineState& state,
                     std::span<const PipelineStage> stages) {
  ScratchArena& arena = this_thread_arena();
  MutexLock lock(state.mu);
  while (state.remaining > 0) {
    if (state.ready.empty()) {
      state.cv.wait(state.mu, [&state]() MARSIT_REQUIRES(state.mu) {
        return !state.ready.empty() || state.remaining == 0;
      });
      continue;
    }
    const std::size_t id = state.ready.front();
    state.ready.pop_front();
    lock.unlock();

    const std::size_t stage = id / state.num_chunks;
    const std::size_t chunk = id % state.num_chunks;
    arena.reset();
    stages[stage].run(chunk, arena);

    lock.lock();
    --state.remaining;
    if (stage + 1 < state.num_stages) {
      release_dependency(state, stage + 1, chunk);
    }
    if (chunk + 1 < state.num_chunks) {
      release_dependency(state, stage, chunk + 1);
    }
    // At most two tasks became ready, but a draining worker might be about
    // to sleep and the other wake-up target might be exiting: notify_all is
    // the simple safe choice at this task granularity.
    if (state.remaining == 0 || !state.ready.empty()) {
      state.cv.notify_all();
    }
  }
}

}  // namespace

void run_chunk_pipeline(ThreadPool& pool, std::size_t num_chunks,
                        std::span<const PipelineStage> stages) {
  const std::size_t num_stages = stages.size();
  if (num_chunks == 0 || num_stages == 0) {
    return;
  }
  for (const PipelineStage& stage : stages) {
    MARSIT_CHECK(static_cast<bool>(stage.run)) << "empty pipeline stage";
  }
  // Inline fast path: with one chunk or one pool thread the wavefront
  // degenerates to the sequential topological order — run it here without
  // scheduler traffic.  (Identical outputs: see the determinism note in
  // pipeline.hpp.)
  if (num_chunks == 1 || pool.num_threads() == 1) {
    ScratchArena& arena = this_thread_arena();
    for (std::size_t c = 0; c < num_chunks; ++c) {
      for (std::size_t s = 0; s < num_stages; ++s) {
        arena.reset();
        stages[s].run(c, arena);
      }
    }
    return;
  }

  PipelineState state;
  state.num_chunks = num_chunks;
  state.num_stages = num_stages;
  {
    // No worker exists yet, but the guarded fields are locked for the setup
    // writes anyway: uncontended, and the analysis stays unconditional.
    const MutexLock lock(state.mu);
    state.remaining = num_stages * num_chunks;
    state.deps.resize(state.remaining);
    for (std::size_t s = 0; s < num_stages; ++s) {
      for (std::size_t c = 0; c < num_chunks; ++c) {
        state.deps[s * num_chunks + c] =
            static_cast<std::uint8_t>((s > 0 ? 1 : 0) + (c > 0 ? 1 : 0));
      }
    }
    state.ready.push_back(0);  // (stage 0, chunk 0) is the only root
  }

  // The wavefront admits at most min(num_stages, num_chunks) concurrent
  // tasks; extra loop workers would only sleep on the cv.
  const std::size_t helpers =
      std::min(pool.num_threads(), std::min(num_stages, num_chunks));
  for (std::size_t i = 0; i + 1 < helpers; ++i) {
    pool.submit([&state, stages] { pipeline_worker(state, stages); });
  }
  // The caller is the last participant; single-producer contract of the
  // pool holds (all submits above happened on this thread).
  pipeline_worker(state, stages);
  // Loop tasks hold references to `state` on this stack frame — wait for
  // them to drain before returning.
  pool.wait_idle();
}

bool chunk_pass_fans_out(const ThreadPool& pool, std::size_t num_chunks) {
  return num_chunks >= pool.num_threads();
}

void run_chunk_pass(
    ThreadPool& pool, std::size_t num_chunks,
    const std::function<void(std::size_t chunk, ScratchArena& arena)>& body) {
  const auto run_one = [&body](std::size_t c) {
    ScratchArena& arena = this_thread_arena();
    arena.reset();
    body(c, arena);
  };
  if (chunk_pass_fans_out(pool, num_chunks)) {
    parallel_for(pool, num_chunks, run_one);
    return;
  }
  for (std::size_t c = 0; c < num_chunks; ++c) {
    run_one(c);
  }
}

}  // namespace marsit
