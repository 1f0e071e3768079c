// Fault injection at the strategy level: membership faults re-form the
// reduction over the survivors, compensation state of absent workers is
// carried forward untouched, and a plan with no effective faults leaves
// outputs and timings bit-identical to no plan at all.  Also regression
// coverage for the sync-path bug sweep that rode along with the fault layer
// (Elias cache clamping, the sharded scratch reallocation guard, the
// measurement-only Elias sizing helper).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "collectives/aggregators.hpp"
#include "core/sync_strategy.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace marsit {
namespace {

constexpr std::size_t kDim = 1500;
constexpr std::size_t kRounds = 4;

std::vector<std::vector<float>> make_inputs(std::size_t workers,
                                            std::size_t round) {
  std::vector<std::vector<float>> inputs(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    inputs[w].resize(kDim);
    Rng rng(derive_seed(5000 + round, w));
    fill_normal({inputs[w].data(), kDim}, rng, 0.0f, 1.0f);
  }
  return inputs;
}

WorkerSpans as_spans(const std::vector<std::vector<float>>& inputs) {
  WorkerSpans spans;
  for (const auto& in : inputs) {
    spans.emplace_back(in.data(), in.size());
  }
  return spans;
}

SyncConfig base_config(std::size_t workers,
                       MarParadigm paradigm = MarParadigm::kRing) {
  SyncConfig config;
  config.num_workers = workers;
  config.paradigm = paradigm;
  config.seed = 77;
  return config;
}

struct RunTrace {
  std::vector<float> outputs;            // kRounds × kDim, concatenated
  std::vector<double> completion;        // per-round completion seconds
  std::vector<std::size_t> active;       // per-round surviving workers
};

/// Runs kRounds rounds; absent workers still hand in their (ignored) input,
/// exactly as the trainer does.
RunTrace run_rounds(SyncMethod method, SyncConfig config) {
  auto strategy = make_sync_strategy(method, config);
  RunTrace trace;
  std::vector<float> out(kDim);
  for (std::size_t t = 0; t < kRounds; ++t) {
    const auto inputs = make_inputs(config.num_workers, t);
    const SyncStepResult step =
        strategy->synchronize(as_spans(inputs), {out.data(), out.size()});
    trace.outputs.insert(trace.outputs.end(), out.begin(), out.end());
    trace.completion.push_back(step.timing.completion_seconds);
    trace.active.push_back(step.active_workers);
  }
  return trace;
}

void expect_bit_identical(const std::vector<float>& a,
                          const std::vector<float>& b, const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << label;
}

const SyncMethod kValueMethods[] = {
    SyncMethod::kPsgd,     SyncMethod::kSignSgdMv, SyncMethod::kEfSignSgd,
    SyncMethod::kSsdm,     SyncMethod::kMarsit,
};

TEST(FaultInjectionTest, IneffectivePlanIsBitIdentical) {
  // A plan whose drop-out windows never intersect the executed rounds takes
  // the membership code path but must change nothing — outputs and timings
  // bit-identical to the default empty plan.
  SyncConfig faulty = base_config(4);
  faulty.fault_plan.dropouts.push_back({2, 100, 200});
  for (const SyncMethod method : kValueMethods) {
    const RunTrace clean = run_rounds(method, base_config(4));
    const RunTrace armed = run_rounds(method, faulty);
    expect_bit_identical(armed.outputs, clean.outputs,
                         sync_method_name(method));
    EXPECT_EQ(armed.completion, clean.completion) << sync_method_name(method);
    EXPECT_EQ(armed.active, std::vector<std::size_t>(kRounds, 4));
  }
}

TEST(FaultInjectionTest, DegradedRingMatchesNativeSmallerRing) {
  // Worker 3 of a 4-worker ring sits out every round: outputs, per-round
  // timings and the fold's rng consumption must all match a native 3-worker
  // ring — the reduction genuinely re-forms, it doesn't just skip a hop.
  SyncConfig degraded = base_config(4);
  degraded.fault_plan.dropouts.push_back({3, 0, kRounds});
  for (const SyncMethod method : kValueMethods) {
    const RunTrace expect = run_rounds(method, base_config(3));
    const RunTrace actual = run_rounds(method, degraded);
    expect_bit_identical(actual.outputs, expect.outputs,
                         sync_method_name(method));
    EXPECT_EQ(actual.completion, expect.completion)
        << sync_method_name(method);
    EXPECT_EQ(actual.active, std::vector<std::size_t>(kRounds, 3));
  }
}

TEST(FaultInjectionTest, DegradedTorusMatchesNativeSmallerTorus) {
  // A 3×2 torus losing its last row re-forms as the 2×2 torus over the four
  // survivors (whole rows survive, so the torus shape is preserved).  The
  // fold re-forms by the same rule the timing prices, so outputs and
  // completion both match the native 2×2 torus.
  SyncConfig degraded = base_config(6, MarParadigm::kTorus2d);
  degraded.torus_rows = 3;
  degraded.torus_cols = 2;
  degraded.fault_plan.dropouts.push_back({4, 0, kRounds});
  degraded.fault_plan.dropouts.push_back({5, 0, kRounds});

  SyncConfig native = base_config(4, MarParadigm::kTorus2d);
  native.torus_rows = 2;
  native.torus_cols = 2;

  const RunTrace expect = run_rounds(SyncMethod::kMarsit, native);
  const RunTrace actual = run_rounds(SyncMethod::kMarsit, degraded);
  expect_bit_identical(actual.outputs, expect.outputs, "Marsit-TAR");
  EXPECT_EQ(actual.completion, expect.completion);
}

TEST(FaultInjectionTest, MajorityVoteRunsOverSurvivorsOnly) {
  // Workers 2 and 3 vote −1 but are absent; the surviving {+1, +1} majority
  // must win every element.  If the dropped votes leaked in, the 2–2 tie
  // would zero (or flip) elements.
  SyncConfig config = base_config(4);
  config.fault_plan.dropouts.push_back({2, 0, 1});
  config.fault_plan.dropouts.push_back({3, 0, 1});
  auto strategy = make_sync_strategy(SyncMethod::kSignSgdMv, config);

  std::vector<std::vector<float>> inputs(4, std::vector<float>(kDim, 1.0f));
  inputs[2].assign(kDim, -1.0f);
  inputs[3].assign(kDim, -1.0f);
  std::vector<float> out(kDim);
  const SyncStepResult step =
      strategy->synchronize(as_spans(inputs), {out.data(), out.size()});
  EXPECT_EQ(step.active_workers, 2u);
  const float eta_s = MethodOptions{}.eta_s;
  for (std::size_t i = 0; i < kDim; ++i) {
    ASSERT_EQ(out[i], eta_s) << "element " << i;
  }
}

TEST(FaultInjectionTest, QuorumReadmitsWorkersBelowTwoSurvivors) {
  // Every worker is scheduled out; the quorum rule re-admits the two
  // lowest-indexed ones so the collective stays well-formed.
  SyncConfig config = base_config(4);
  for (std::size_t w = 0; w < 4; ++w) {
    config.fault_plan.dropouts.push_back({w, 0, kRounds});
  }
  const RunTrace actual = run_rounds(SyncMethod::kPsgd, config);
  EXPECT_EQ(actual.active, std::vector<std::size_t>(kRounds, 2));
  const RunTrace expect = run_rounds(SyncMethod::kPsgd, base_config(2));
  expect_bit_identical(actual.outputs, expect.outputs, "quorum PSGD");
}

TEST(FaultInjectionTest, AbsentWorkerStateCarriedForwardUntouched) {
  // While worker 3 is absent (round 1), its input must be ignored and its
  // compensation state left alone: corrupting the absent round's input
  // changes nothing, in that round or any later one.
  SyncConfig config = base_config(4);
  config.fault_plan.dropouts.push_back({3, 1, 2});
  for (const SyncMethod method :
       {SyncMethod::kMarsit, SyncMethod::kEfSignSgd}) {
    auto clean = make_sync_strategy(method, config);
    auto corrupted = make_sync_strategy(method, config);
    std::vector<float> out_clean(kDim), out_corrupted(kDim);
    for (std::size_t t = 0; t < kRounds; ++t) {
      auto inputs = make_inputs(4, t);
      clean->synchronize(as_spans(inputs),
                         {out_clean.data(), out_clean.size()});
      if (t == 1) {
        inputs[3].assign(kDim, 1e6f);  // garbage only the absent worker sees
      }
      corrupted->synchronize(as_spans(inputs),
                             {out_corrupted.data(), out_corrupted.size()});
      expect_bit_identical(out_corrupted, out_clean, sync_method_name(method));
    }
  }
}

TEST(FaultInjectionTest, BernoulliDropoutRoundsAreDeterministic) {
  SyncConfig config = base_config(6);
  config.fault_plan.seed = 13;
  config.fault_plan.dropout_rate = 0.3;
  const RunTrace first = run_rounds(SyncMethod::kSignSgdMv, config);
  const RunTrace replay = run_rounds(SyncMethod::kSignSgdMv, config);
  expect_bit_identical(replay.outputs, first.outputs, "replay");
  EXPECT_EQ(replay.active, first.active);
  // The schedule must actually degrade some rounds at this rate/length.
  bool any_degraded = false;
  for (const std::size_t m : first.active) {
    EXPECT_GE(m, 2u);
    EXPECT_LE(m, 6u);
    any_degraded = any_degraded || m < 6;
  }
  EXPECT_TRUE(any_degraded);
}

// --- satellite regressions --------------------------------------------------------

TEST(EliasCacheTest, ClampsContributionsIntoCacheRange) {
  const std::vector<double> cache = {2.0, 2.5, 2.9};
  // contributions == 0 used to wrap to SIZE_MAX and index out of bounds.
  EXPECT_DOUBLE_EQ(elias_cache_bits_per_element(cache, 0), 2.0);
  EXPECT_DOUBLE_EQ(elias_cache_bits_per_element(cache, 1), 2.0);
  EXPECT_DOUBLE_EQ(elias_cache_bits_per_element(cache, 3), 2.9);
  // Membership can grow past the count the cache was measured at (a worker
  // returning after a degraded refresh round): clamp to the last entry.
  EXPECT_DOUBLE_EQ(elias_cache_bits_per_element(cache, 5), 2.9);
  EXPECT_DOUBLE_EQ(elias_cache_bits_per_element({}, 4), 2.0);
}

TEST(EliasMeasureTest, MatchesAggregateSignSumSizes) {
  // The measurement-only helper must agree entry-for-entry with the sizes
  // aggregate_sign_sum records while folding — with and without the
  // precomputed final sum (the reuse path the refresh rounds take).
  std::vector<BitVector> signs;
  Rng rng(9);
  for (std::size_t w = 0; w < 5; ++w) {
    BitVector bits(700);
    for (std::size_t i = 0; i < bits.size(); ++i) {
      bits.set(i, rng.bernoulli(0.4));
    }
    signs.push_back(std::move(bits));
  }
  const SignSumAggregate reference = aggregate_sign_sum(signs, true);
  EXPECT_EQ(measure_elias_bits_per_element(signs),
            reference.elias_bits_per_element);
  EXPECT_EQ(measure_elias_bits_per_element(signs, &reference.sum),
            reference.elias_bits_per_element);
}

TEST(FaultInjectionTest, ShardedScratchReallocatedWhenMembershipGrows) {
  // S2 regression: the scratch sign vectors are sized by the previous
  // round's survivor count; when membership grows back on an Elias refresh
  // round the guard must notice the worker-count change, not just the
  // dimension.  Round 1's output must match a fault-free run's round 1
  // (signSGD keeps no cross-round value state).
  SyncConfig config = base_config(4);
  config.use_elias = true;
  config.elias_refresh_interval = 1;  // refresh (and materialize) every round
  SyncConfig faulty = config;
  faulty.fault_plan.dropouts.push_back({3, 0, 1});

  auto clean = make_sync_strategy(SyncMethod::kSignSgdMv, config);
  auto degraded = make_sync_strategy(SyncMethod::kSignSgdMv, faulty);
  std::vector<float> out_clean(kDim), out_degraded(kDim);
  for (std::size_t t = 0; t < 2; ++t) {
    const auto inputs = make_inputs(4, t);
    clean->synchronize(as_spans(inputs),
                       {out_clean.data(), out_clean.size()});
    degraded->synchronize(as_spans(inputs),
                          {out_degraded.data(), out_degraded.size()});
  }
  expect_bit_identical(out_degraded, out_clean,
                       "post-recovery refresh round");
}

// --- elastic rejoin at the K-round flush -------------------------------------------

/// Runs `rounds` rounds of Marsit with flush period K = 4, recording
/// outputs and per-round step results.
struct RejoinTrace {
  std::vector<float> outputs;
  std::vector<SyncStepResult> steps;
};

RejoinTrace run_marsit_rejoin(const FaultPlan& plan, std::size_t rounds) {
  SyncConfig config = base_config(4);
  config.fault_plan = plan;
  MethodOptions options;
  options.full_precision_period = 4;  // flushes at rounds 0, 4, 8
  auto strategy = make_sync_strategy(SyncMethod::kMarsit, config, options);
  RejoinTrace trace;
  std::vector<float> out(kDim);
  for (std::size_t t = 0; t < rounds; ++t) {
    const auto inputs = make_inputs(4, t);
    trace.steps.push_back(
        strategy->synchronize(as_spans(inputs), {out.data(), out.size()}));
    trace.outputs.insert(trace.outputs.end(), out.begin(), out.end());
  }
  return trace;
}

TEST(FaultInjectionTest, RejoinAtFlushWaitsForBarrierAndReportsRejoins) {
  // Worker 2 drops at round 2 with to_round = 3; the rejoin_at_flush window
  // holds it out through round 3 and re-admits it exactly at the flush
  // (round 4), where the strategy reports a flush rejoin.
  FaultPlan plan;
  plan.dropouts.push_back({2, 2, 3, true});
  const RejoinTrace trace = run_marsit_rejoin(plan, 6);
  const std::vector<std::size_t> active = {4, 4, 3, 3, 4, 4};
  for (std::size_t t = 0; t < active.size(); ++t) {
    EXPECT_EQ(trace.steps[t].active_workers, active[t]) << "round " << t;
  }
  EXPECT_EQ(trace.steps[4].rejoined_workers, 1u);
  EXPECT_EQ(trace.steps[4].flush_rejoined_workers, 1u);
  EXPECT_EQ(trace.steps[3].rejoined_workers, 0u);
  EXPECT_EQ(trace.steps[5].rejoined_workers, 0u);

  // Without the flag the worker returns at round 3 — a plain carry-forward
  // rejoin, exactly the PR-2 semantics.
  FaultPlan carry;
  carry.dropouts.push_back({2, 2, 3, false});
  const RejoinTrace plain = run_marsit_rejoin(carry, 6);
  EXPECT_EQ(plain.steps[2].active_workers, 3u);
  EXPECT_EQ(plain.steps[3].active_workers, 4u);
  EXPECT_EQ(plain.steps[3].rejoined_workers, 1u);
  EXPECT_EQ(plain.steps[3].flush_rejoined_workers, 0u);
}

TEST(FaultInjectionTest, FlushRejoinDiscardsStaleCompensation) {
  // Worker 2 accumulates compensation on one-bit rounds 1–2, then drops
  // over [3, 4).  Both plans re-admit it at round 4 (the flush), but only
  // the rejoin_at_flush one discards its stale residual at the barrier —
  // so the runs agree bit-for-bit up to the flush and differ exactly there
  // (the flush folds c into the mean).
  FaultPlan barrier;
  barrier.dropouts.push_back({2, 3, 4, true});
  FaultPlan carry;
  carry.dropouts.push_back({2, 3, 4, false});
  const RejoinTrace discarded = run_marsit_rejoin(barrier, 5);
  const RejoinTrace carried = run_marsit_rejoin(carry, 5);

  const auto round_span = [](const RejoinTrace& t, std::size_t r) {
    return std::vector<float>(t.outputs.begin() + r * kDim,
                              t.outputs.begin() + (r + 1) * kDim);
  };
  for (std::size_t t = 0; t < 4; ++t) {
    expect_bit_identical(round_span(discarded, t), round_span(carried, t),
                         "pre-flush round");
  }
  EXPECT_NE(round_span(discarded, 4), round_span(carried, 4))
      << "flush rejoin must discard the stale compensation the carry run "
         "folds in";
  EXPECT_EQ(discarded.steps[4].flush_rejoined_workers, 1u);
  EXPECT_EQ(carried.steps[4].flush_rejoined_workers, 0u);
}

// --- corruption demotion -----------------------------------------------------------

TEST(FaultInjectionTest, DemotedSenderNeverFoldsIntoAggregate) {
  // The aggregate of a corruption-demoting run must equal the aggregate of
  // a run whose explicit drop-out windows mirror the demotion pattern: a
  // demoted sender is excluded exactly like an absent worker (values; the
  // timing additionally carries the burned retransmissions).
  FaultPlan corrupt;
  corrupt.seed = 31;
  corrupt.corruption_rate = 0.5;
  corrupt.max_retries = 1;  // demotion probability 0.25 per (worker, round)
  corrupt.retry_timeout = 1e-6;

  FaultPlan mirrored;  // membership-only twin of the demotion pattern
  std::size_t demotions = 0;
  for (std::size_t t = 0; t < kRounds; ++t) {
    for (std::size_t w = 0; w < 4; ++w) {
      if (corrupt.sender_demoted(w, t)) {
        mirrored.dropouts.push_back({w, t, t + 1});
        ++demotions;
      }
    }
  }
  ASSERT_GT(demotions, 0u) << "seed produced no demotions; pick another";

  SyncConfig corrupt_config = base_config(4);
  corrupt_config.fault_plan = corrupt;
  SyncConfig mirrored_config = base_config(4);
  mirrored_config.fault_plan = mirrored;
  for (const SyncMethod method : kValueMethods) {
    const RunTrace demoted = run_rounds(method, corrupt_config);
    const RunTrace absent = run_rounds(method, mirrored_config);
    expect_bit_identical(demoted.outputs, absent.outputs,
                         sync_method_name(method));
    EXPECT_EQ(demoted.active, absent.active) << sync_method_name(method);
  }
}

TEST(FaultInjectionTest, DemotionChargesBurnedRetransmissions) {
  FaultPlan plan;
  plan.seed = 31;
  plan.corruption_rate = 0.5;
  plan.max_retries = 1;
  plan.retry_timeout = 1e-6;
  SyncConfig config = base_config(4);
  config.fault_plan = plan;
  auto strategy = make_sync_strategy(SyncMethod::kSignSgdMv, config);
  std::vector<float> out(kDim);
  for (std::size_t t = 0; t < kRounds; ++t) {
    const auto inputs = make_inputs(4, t);
    const SyncStepResult step =
        strategy->synchronize(as_spans(inputs), {out.data(), out.size()});
    std::size_t expected_demoted = 0;
    for (std::size_t w = 0; w < 4; ++w) {
      expected_demoted += plan.sender_demoted(w, t) ? 1 : 0;
    }
    EXPECT_EQ(step.demoted_workers, expected_demoted) << "round " << t;
    if (expected_demoted > 0) {
      // Each demoted sender burned (max_retries + 1) full payloads (plus
      // CRC footers) before giving up; those bits are charged as
      // retransmitted on top of the delivered traffic.
      const double per_sender =
          2.0 * (step.bits_per_element * static_cast<double>(kDim) + 32.0);
      EXPECT_GE(step.timing.retransmitted_wire_bits,
                per_sender * static_cast<double>(expected_demoted))
          << "round " << t;
      EXPECT_GE(step.timing.retransmissions, 2 * expected_demoted)
          << "round " << t;
    }
  }
}

TEST(FaultInjectionTest, SaturatedCorruptionFallsBackToQuorum) {
  // With every sender demoted every round, the quorum rule re-admits the
  // two lowest-indexed workers (modeled as retransmit-until-clean) so the
  // collective stays well-formed.
  FaultPlan plan;
  plan.corruption_rate = 0.999999;
  plan.max_retries = 1;
  plan.retry_timeout = 1e-6;
  SyncConfig config = base_config(4);
  config.fault_plan = plan;
  const RunTrace trace = run_rounds(SyncMethod::kPsgd, config);
  EXPECT_EQ(trace.active, std::vector<std::size_t>(kRounds, 2));
  const RunTrace expect = run_rounds(SyncMethod::kPsgd, base_config(2));
  expect_bit_identical(trace.outputs, expect.outputs, "quorum after demotion");
}

}  // namespace
}  // namespace marsit
