// Determinism tests for the sharded synchronization pipeline: the chunk grid
// and per-chunk rng streams depend only on (seed, round, payload geometry),
// so every strategy must produce bit-identical outputs for any thread-pool
// size.  Also pins signSGD-MV's sharded output to the serial scalar
// reference (pack → sign-sum → majority → unpack), and Marsit's
// reduce-scatter rounds — flat chunk passes with the compensation update
// fused into them — to a serial reference that stores u + c.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "compress/sign_codec.hpp"
#include "compress/sign_sum.hpp"
#include "core/schedule.hpp"
#include "core/sync_strategy.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace marsit {
namespace {

// Ragged dimension spanning many chunks at the test chunk size below.
constexpr std::size_t kDim = 5000;
constexpr std::size_t kWorkers = 4;
constexpr std::size_t kChunk = 256;  // → 20 chunks at kDim
constexpr std::size_t kRounds = 3;

std::vector<std::vector<float>> make_inputs(std::size_t round) {
  std::vector<std::vector<float>> inputs(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    inputs[w].resize(kDim);
    Rng rng(derive_seed(1000 + round, w));
    fill_normal({inputs[w].data(), kDim}, rng, 0.0f, 1.0f);
  }
  return inputs;
}

SyncConfig base_config(MarParadigm paradigm, ThreadPool* pool) {
  SyncConfig config;
  config.num_workers = kWorkers;
  config.paradigm = paradigm;
  if (paradigm == MarParadigm::kTorus2d) {
    config.torus_rows = 2;
    config.torus_cols = 2;
  }
  config.seed = 77;
  config.pool = pool;
  config.shard_chunk_elements = kChunk;
  return config;
}

/// Runs kRounds synchronize() calls and returns the concatenated outputs.
std::vector<float> run_rounds(SyncMethod method, MarParadigm paradigm,
                              ThreadPool* pool, bool use_elias = false) {
  SyncConfig config = base_config(paradigm, pool);
  config.use_elias = use_elias;
  config.elias_refresh_interval = 2;  // hit both refresh and cached rounds
  auto strategy = make_sync_strategy(method, config);
  std::vector<float> all;
  std::vector<float> out(kDim);
  for (std::size_t t = 0; t < kRounds; ++t) {
    const auto inputs = make_inputs(t);
    WorkerSpans spans;
    for (const auto& in : inputs) {
      spans.emplace_back(in.data(), in.size());
    }
    strategy->synchronize(spans, {out.data(), out.size()});
    all.insert(all.end(), out.begin(), out.end());
  }
  return all;
}

void expect_bit_identical(const std::vector<float>& a,
                          const std::vector<float>& b, const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << label << ": outputs differ across pool sizes";
}

void check_pool_invariance(SyncMethod method, MarParadigm paradigm,
                           const char* label) {
  ThreadPool pool1(1), pool4(4), pool_hw(0);
  const std::vector<float> ref = run_rounds(method, paradigm, &pool1);
  expect_bit_identical(run_rounds(method, paradigm, &pool4), ref, label);
  expect_bit_identical(run_rounds(method, paradigm, &pool_hw), ref, label);
}

TEST(ShardedSyncTest, MarsitRingPoolInvariant) {
  check_pool_invariance(SyncMethod::kMarsit, MarParadigm::kRing,
                        "Marsit-RAR");
}

TEST(ShardedSyncTest, MarsitTorusPoolInvariant) {
  check_pool_invariance(SyncMethod::kMarsit, MarParadigm::kTorus2d,
                        "Marsit-TAR");
}

TEST(ShardedSyncTest, MarsitTreePoolInvariant) {
  check_pool_invariance(SyncMethod::kMarsit, MarParadigm::kTree,
                        "Marsit-TREE");
}

TEST(ShardedSyncTest, SignSgdPoolInvariant) {
  check_pool_invariance(SyncMethod::kSignSgdMv, MarParadigm::kRing,
                        "signSGD-MV");
}

TEST(ShardedSyncTest, SsdmPoolInvariant) {
  check_pool_invariance(SyncMethod::kSsdm, MarParadigm::kRing, "SSDM-RAR");
}

TEST(ShardedSyncTest, SsdmPsPoolInvariant) {
  check_pool_invariance(SyncMethod::kSsdmPs, MarParadigm::kParameterServer,
                        "SSDM-PS");
}

TEST(ShardedSyncTest, EliasRefreshDoesNotChangeOutputs) {
  // Elias refresh rounds materialize per-worker sign vectors instead of
  // packing into scratch; the packing consumes rng identically either way,
  // so outputs must not depend on the wire encoding choice.
  ThreadPool pool(2);
  for (const SyncMethod method : {SyncMethod::kSignSgdMv, SyncMethod::kSsdm}) {
    const auto plain = run_rounds(method, MarParadigm::kRing, &pool, false);
    const auto elias = run_rounds(method, MarParadigm::kRing, &pool, true);
    expect_bit_identical(elias, plain, sync_method_name(method));
  }
}

TEST(ShardedSyncTest, SignSgdMatchesScalarReference) {
  // The whole sharded pipeline, pinned against the serial scalar path:
  // per-worker pack_signs_scalar → SignSum::accumulate_scalar →
  // majority_scalar → unpack_signs_scalar.
  ThreadPool pool(3);
  const float eta_s = 1e-3f;  // MethodOptions default
  const auto inputs = make_inputs(0);
  WorkerSpans spans;
  for (const auto& in : inputs) {
    spans.emplace_back(in.data(), in.size());
  }

  SignSum sum(kDim);
  for (const auto& in : inputs) {
    sum.accumulate_scalar(pack_signs_scalar({in.data(), in.size()}));
  }
  std::vector<float> expected(kDim);
  unpack_signs_scalar(sum.majority_scalar(), eta_s,
                      {expected.data(), expected.size()});

  auto strategy = make_sync_strategy(SyncMethod::kSignSgdMv,
                                     base_config(MarParadigm::kRing, &pool));
  std::vector<float> out(kDim);
  strategy->synchronize(spans, {out.data(), out.size()});
  EXPECT_EQ(
      std::memcmp(out.data(), expected.data(), kDim * sizeof(float)), 0)
      << "sharded signSGD-MV diverges from the scalar reference";
}

TEST(ShardedSyncTest, SingleChunkMatchesSerialRoundStream) {
  // Chunk 0 continues the round stream, so a payload that fits in one chunk
  // reproduces the serial implementation's rng consumption — checked here by
  // comparing a huge-chunk SSDM-MAR run against stochastic packing done by
  // hand over the whole vector with Rng(derive_seed(seed, round)), then
  // majority and unpack.
  ThreadPool pool(2);
  SyncConfig config = base_config(MarParadigm::kRing, &pool);
  config.shard_chunk_elements = 1 << 20;  // whole payload in chunk 0
  auto strategy = make_sync_strategy(SyncMethod::kSsdm, config);

  const auto inputs = make_inputs(0);
  WorkerSpans spans;
  for (const auto& in : inputs) {
    spans.emplace_back(in.data(), in.size());
  }
  std::vector<float> out(kDim);
  strategy->synchronize(spans, {out.data(), out.size()});

  // Serial reference: every worker packs from the one round stream in
  // worker order, with the strategy's 64-element norm blocks.
  constexpr std::size_t kSsdmBlock = 64;
  Rng rng(derive_seed(config.seed, 0));
  SignSum sum(kDim);
  for (const auto& in : inputs) {
    BitVector bits(kDim);
    ssdm_pack_words({in.data(), in.size()}, rng, kSsdmBlock, bits.words());
    sum.accumulate(bits);
  }
  std::vector<float> expected(kDim);
  unpack_signs(sum.majority(), MethodOptions{}.eta_s,
               {expected.data(), expected.size()});
  EXPECT_EQ(
      std::memcmp(out.data(), expected.data(), kDim * sizeof(float)), 0)
      << "single-chunk SSDM-MAR diverges from the serial round stream";
}

// --- reduce-scatter mode ---------------------------------------------------

constexpr std::size_t kRsRounds = 5;      // flushes at 0, 2, 4
constexpr std::size_t kDroppedWorker = 2;
constexpr std::size_t kDropRound = 3;     // a one-bit round

/// Outputs and save_state bytes (round counter + compensation) after every
/// round of a reduce-scatter Marsit run.
struct RsRun {
  std::vector<float> outputs;
  std::vector<std::uint8_t> states;
};

/// Per-worker compensation vectors decoded from MarsitSync::save_state.
std::vector<std::vector<float>> compensation_of(const SyncStrategy& strategy) {
  ckpt::SnapshotWriter writer;
  strategy.save_state(writer);
  const std::vector<std::uint8_t> bytes = writer.bytes();
  ckpt::SnapshotReader reader({bytes.data(), bytes.size()});
  reader.u64();  // round counter
  std::vector<std::vector<float>> compensation(
      static_cast<std::size_t>(reader.u64()));
  for (auto& c : compensation) {
    c = reader.f32_vec();
  }
  return compensation;
}

/// Flush every other round (max-norm clipped), one-bit rounds in between,
/// and one worker absent from the one-bit round kDropRound.
RsRun run_reduce_scatter_rounds(MarParadigm paradigm, ThreadPool* pool) {
  SyncConfig config = base_config(paradigm, pool);
  FaultPlan::DropOut drop;
  drop.worker = kDroppedWorker;
  drop.from_round = kDropRound;
  drop.to_round = kDropRound + 1;
  config.fault_plan.dropouts.push_back(drop);
  MethodOptions options;
  options.full_precision_period = 2;
  options.full_precision_max_norm = 0.5f;
  auto strategy = make_sync_strategy(SyncMethod::kMarsit, config, options);

  RsRun run;
  std::vector<float> out(kDim);
  for (std::size_t t = 0; t < kRsRounds; ++t) {
    const auto inputs = make_inputs(t);
    WorkerSpans spans;
    for (const auto& in : inputs) {
      spans.emplace_back(in.data(), in.size());
    }
    const SyncStepResult step =
        strategy->synchronize(spans, {out.data(), out.size()});
    EXPECT_EQ(step.full_precision, t % 2 == 0) << "round " << t;
    EXPECT_EQ(step.active_workers, t == kDropRound ? kWorkers - 1 : kWorkers)
        << "round " << t;
    if (t == kDropRound) {
      // The flush of round kDropRound − 1 zeroed every compensation; the
      // absent worker's must come through the one-bit round untouched while
      // the survivors' pick up their residuals.
      const auto compensation = compensation_of(*strategy);
      for (std::size_t w = 0; w < kWorkers; ++w) {
        const bool all_zero = std::all_of(
            compensation[w].begin(), compensation[w].end(),
            [](float v) { return v == 0.0f; });
        EXPECT_EQ(all_zero, w == kDroppedWorker) << "worker " << w;
      }
    }
    run.outputs.insert(run.outputs.end(), out.begin(), out.end());
    ckpt::SnapshotWriter writer;
    strategy->save_state(writer);
    const auto bytes = writer.bytes();
    run.states.insert(run.states.end(), bytes.begin(), bytes.end());
  }
  return run;
}

void check_reduce_scatter_pool_invariance(MarParadigm paradigm,
                                          const char* label) {
  // kDim / kChunk = 20 chunks, so pools of 4 and more run every pass fanned
  // out while pool 1 runs it inline.
  ThreadPool pool1(1), pool4(4), pool_hw(0);
  const RsRun ref = run_reduce_scatter_rounds(paradigm, &pool1);
  for (ThreadPool* pool : {&pool4, &pool_hw}) {
    const RsRun run = run_reduce_scatter_rounds(paradigm, pool);
    expect_bit_identical(run.outputs, ref.outputs, label);
    ASSERT_EQ(run.states.size(), ref.states.size()) << label;
    EXPECT_EQ(std::memcmp(run.states.data(), ref.states.data(),
                          ref.states.size()),
              0)
        << label << ": compensation differs across pool sizes";
  }
}

TEST(ShardedSyncTest, MarsitRingReduceScatterPoolInvariant) {
  check_reduce_scatter_pool_invariance(MarParadigm::kRing, "Marsit-RAR rs");
}

TEST(ShardedSyncTest, MarsitTorusReduceScatterPoolInvariant) {
  check_reduce_scatter_pool_invariance(MarParadigm::kTorus2d,
                                       "Marsit-TAR rs");
}

TEST(ShardedSyncTest, MarsitPsReduceScatterPoolInvariant) {
  check_reduce_scatter_pool_invariance(MarParadigm::kParameterServer,
                                       "Marsit-PS rs");
}

TEST(ShardedSyncTest, MarsitTreeReduceScatterPoolInvariant) {
  check_reduce_scatter_pool_invariance(MarParadigm::kTree, "Marsit-TREE rs");
}

TEST(ShardedSyncTest, MarsitReduceScatterMatchesStoredSumReference) {
  // Serial reference with the u + c sum stored per worker (the layout the
  // fused passes replaced): adjusted = u + c; pack; schedule fold; unpack;
  // c = adjusted − g.  No flush, so the compensation carries across rounds.
  ThreadPool pool(4);
  SyncConfig config = base_config(MarParadigm::kTorus2d, &pool);
  auto strategy = make_sync_strategy(SyncMethod::kMarsit, config);
  const float eta_s = MethodOptions{}.eta_s;

  std::vector<std::vector<float>> compensation(
      kWorkers, std::vector<float>(kDim, 0.0f));
  std::vector<float> out(kDim), expected(kDim), adjusted(kDim);
  for (std::size_t t = 0; t < kRounds; ++t) {
    const auto inputs = make_inputs(t);
    WorkerSpans spans;
    for (const auto& in : inputs) {
      spans.emplace_back(in.data(), in.size());
    }
    strategy->synchronize(spans, {out.data(), out.size()});

    std::vector<std::vector<float>> sums(kWorkers);
    std::vector<BitVector> signs;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      sums[w].resize(kDim);
      add({inputs[w].data(), kDim}, {compensation[w].data(), kDim},
          {sums[w].data(), kDim});
      signs.push_back(pack_signs({sums[w].data(), kDim}));
    }
    fold_schedule(reduce_scatter_schedule(config.paradigm, kWorkers,
                                          config.torus_cols,
                                          signs.front().num_words()),
                  signs, derive_seed(config.seed, t));
    unpack_signs(signs.front(), eta_s, {expected.data(), kDim});
    for (std::size_t w = 0; w < kWorkers; ++w) {
      sub({sums[w].data(), kDim}, {expected.data(), kDim},
          {compensation[w].data(), kDim});
    }

    EXPECT_EQ(std::memcmp(out.data(), expected.data(), kDim * sizeof(float)),
              0)
        << "round " << t << ": output diverges from the serial reference";
    const auto actual = compensation_of(*strategy);
    ASSERT_EQ(actual.size(), kWorkers);
    for (std::size_t w = 0; w < kWorkers; ++w) {
      ASSERT_EQ(actual[w].size(), kDim);
      EXPECT_EQ(std::memcmp(actual[w].data(), compensation[w].data(),
                            kDim * sizeof(float)),
                0)
          << "round " << t << ", worker " << w
          << ": compensation diverges from the serial reference";
    }
  }
}

}  // namespace
}  // namespace marsit
