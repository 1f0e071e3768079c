// Distributed Marsit worker — one rank of a real multi-process (or
// multi-thread) training run over a Transport (DESIGN.md §14).
//
// Each rank owns a full model replica and runs the exact per-round math of
// DistributedTrainer + MarsitSync: the same local_step (sim/trainer.hpp),
// sampler streams and ⊙ reduction.  A run over SimTransport or
// SocketTransport therefore finishes with parameters bit-identical to the
// simulator's — the cross-backend determinism contract
// tests/dist_cross_backend_test pins via FNV-1a param digests.
//
// Every round replays one of two schedules from core/schedule.hpp, built
// once per run, through two interpreters private to this file:
//
//   execute   this rank's sends and receives over the Transport, hop by hop;
//   predict   the same hops on a NetworkSim — the round's α–β prediction,
//             whose byte total is by construction the sum of every rank's
//             payload bytes (RoundReport::total_wire_bits, the invariant
//             tests/dist_wire_volume_test pins).  Both schedules are fixed
//             and fault-free, so each is predicted once per run.
//
// The schedules:
//
//   reduce-scatter plane   one-bit rounds: each rank folds only the
//     segments it owns, then gathers the rest — exactly 2(M−1)·D sign bits
//     per round on every paradigm.  The aggregate equals MarsitSync's
//     fold_schedule of the same schedule bit for bit.
//   all-gather plane of floats   full-precision flush rounds (float
//     summation is order-sensitive, so every rank takes the mean in one
//     fixed order).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/sync_strategy.hpp"
#include "data/dataset.hpp"
#include "net/cost_model.hpp"
#include "net/transport.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"

namespace marsit::dist {

struct WorkerConfig {
  std::size_t batch_size_per_worker = 32;
  OptimizerKind optimizer = OptimizerKind::kSgd;
  float eta_l = 0.05f;
  /// Per-worker gradient clipping before the local optimizer (0 disables);
  /// same semantics as TrainerConfig::clip_grad_norm.
  float clip_grad_norm = 0.0f;
  std::size_t rounds = 10;
  /// Seeds TrainerConfig::seed / SyncConfig::seed would carry in the
  /// simulator run this worker must match.
  std::uint64_t trainer_seed = 7;
  std::uint64_t sync_seed = 7;
  /// Any of kRing / kTorus2d / kParameterServer / kTree.
  MarParadigm paradigm = MarParadigm::kRing;
  std::size_t torus_rows = 0;
  std::size_t torus_cols = 0;
  /// Has one value; nothing reads it.  Kept only because perfbench assigns
  /// it — remove it with SyncMode in the next change to the benchmark.
  SyncMode sync_mode = SyncMode::kReduceScatter;
  MarsitOptions options;
  /// Prices the per-round α–β prediction reported next to measured
  /// wall-clock.
  CostModel cost_model;
};

struct RoundReport {
  std::size_t round = 0;
  bool full_precision = false;
  /// Host wall-clock spent in this rank's communication phase.
  double measured_comm_seconds = 0.0;
  /// α–β prediction for the whole round's collective (all ranks), from a
  /// NetworkSim replay of the hop schedule this backend ran.
  double predicted_comm_seconds = 0.0;
  /// Payload bits this rank put on the wire this round.
  double wire_bits = 0.0;
  /// Payload bits ALL ranks put on the wire this round, from the same
  /// NetworkSim replay as predicted_comm_seconds.  Identical on every rank
  /// and bit-for-bit equal to the sum of per-rank wire_bits: 2(M−1)·D sign
  /// bits on one-bit rounds.
  double total_wire_bits = 0.0;
};

struct WorkerResult {
  /// FNV-1a digest over the final parameter bytes — the cross-backend
  /// equality witness.
  std::uint64_t param_digest = 0;
  std::vector<RoundReport> rounds;
};

/// Runs `config.rounds` rounds of Marsit training as rank
/// `transport.rank()` of `transport.world_size()` workers.  Blocking; every
/// rank of the job must call this with identical config, dataset and model
/// factory.
WorkerResult run_marsit_worker(Transport& transport, const Dataset& dataset,
                               const std::function<Sequential()>& model_factory,
                               const WorkerConfig& config);

}  // namespace marsit::dist
