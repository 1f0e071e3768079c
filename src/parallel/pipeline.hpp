// Chunk-pipeline scheduler and per-thread scratch arenas.
//
// The sharded synchronization path used to run each ShardPlan chunk as one
// monolithic parallel_for task (pack → fold → unpack back to back).  The
// overlap pipeline splits a chunk's work into ordered *stages* and runs them
// as a software wavefront over the thread pool: stage s of chunk c may start
// once stage s of chunk c−1 and stage s−1 of chunk c are done.  Chunk i+1
// therefore packs while chunk i folds — the execution-side mirror of the
// max-of-stages timing model in collectives/timing.hpp (DESIGN.md §12).
//
// Determinism: the wavefront changes only *when* a (stage, chunk) task runs,
// never what it computes.  Chunks own disjoint word-aligned ranges of every
// buffer they touch (parallel/shard.hpp) and each chunk derives its own RNG
// stream, so any topological order of the task DAG — including the fully
// sequential one the single-thread fast path takes — produces bit-identical
// outputs.
//
// ScratchArena replaces the per-chunk heap allocations that used to live
// inside the hot lambda (the `std::vector<std::uint64_t> scratch` of
// sharded_majority_sync): each worker thread keeps a thread-local arena of
// reusable blocks, and a global grow counter lets tests assert that warm
// rounds allocate nothing (tests/core_pipeline_overlap_test.cpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace marsit {

class ThreadPool;

/// Reusable scratch blocks for pipeline stage bodies.  take-style accessors
/// hand out spans backed by pooled buffers; reset() returns every block to
/// the free list without releasing memory, so a steady-state round performs
/// zero heap allocations.  Not thread-safe — each thread uses its own arena
/// (see this_thread_arena()).
class ScratchArena {
 public:
  /// Marks every block free.  Spans handed out earlier must no longer be
  /// used.  Called by the pipeline runner before each stage body.
  void reset();

  /// A word block of exactly `count` elements (grows the arena on a cold
  /// miss; warm rounds reuse).  Contents are unspecified.
  std::span<std::uint64_t> words(std::size_t count);

  /// A float block of exactly `count` elements.
  std::span<float> floats(std::size_t count);

  /// Process-wide count of arena block allocations (cold-path grows).  A
  /// warm pipeline round must leave this unchanged — the counting hook the
  /// zero-allocation test asserts on.
  static std::uint64_t total_grows();

 private:
  template <typename T>
  struct Block {
    std::vector<T> data;
    bool in_use = false;
  };

  template <typename T>
  static std::span<T> take(std::vector<Block<T>>& blocks, std::size_t count);

  std::vector<Block<std::uint64_t>> word_blocks_;
  std::vector<Block<float>> float_blocks_;
};

/// The calling thread's arena (thread-local, created on first use).  Pool
/// worker threads are long-lived, so their arenas stay warm across rounds.
ScratchArena& this_thread_arena();

/// One stage of the chunk pipeline.  `run` must be safe to call from any
/// pool thread and must not throw; it receives the chunk index and the
/// executing thread's (already reset) scratch arena.
struct PipelineStage {
  std::function<void(std::size_t chunk, ScratchArena& arena)> run;
};

/// Executes stages[s].run(c) for every stage s and chunk c, subject to the
/// wavefront dependencies
///
///   (s, c) waits for (s−1, c)   — a chunk flows through stages in order —
///   (s, c) waits for (s, c−1)   — a stage processes chunks in order,
///
/// which bounds concurrency to min(num_stages, num_chunks) in-flight tasks
/// (the "double buffer" at two stages).  Blocks until every task has
/// finished.  The caller thread participates in the work.  Runs inline —
/// chunk by chunk, stage by stage — when the pool has one thread or there is
/// a single chunk; outputs are identical either way (see file comment).
void run_chunk_pipeline(ThreadPool& pool, std::size_t num_chunks,
                        std::span<const PipelineStage> stages);

/// The grain rule of flat chunk passes: a pass of `num_chunks` independent
/// chunks fans out over the pool only when every pool thread gets at least
/// one chunk.  Below that, a pool round trip costs more than the few small
/// chunks it would spread (a 2-chunk payload runs faster inline).
bool chunk_pass_fans_out(const ThreadPool& pool, std::size_t num_chunks);

/// Runs body(c, arena) once for every chunk c in [0, num_chunks) as one flat
/// pass: no ordering between chunks, so it is only for bodies that touch
/// disjoint ranges and consume no shared rng stream.  Fans out in contiguous
/// blocks (parallel_for) when chunk_pass_fans_out allows it, else runs inline
/// in chunk order; outputs are identical either way.  Each body receives the
/// executing thread's arena, reset before the call.
void run_chunk_pass(
    ThreadPool& pool, std::size_t num_chunks,
    const std::function<void(std::size_t chunk, ScratchArena& arena)>& body);

}  // namespace marsit
