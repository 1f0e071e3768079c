// Synchronization strategies: Marsit (paper Algorithm 1) and every baseline
// the evaluation compares against, behind one interface.
//
// Contract shared by all strategies: each round, every worker produces a
// local update vector u_m (its stochastic gradient with the local stepsize
// already applied, possibly transformed by a local optimizer).  The strategy
// aggregates them into one global update g_t that *every* worker applies as
// x ← x − g_t, so model replicas stay bit-identical — the invariant all MAR
// methods share and the reason the trainer can keep a single model copy.
//
// synchronize() also returns the round's simulated timing and wire-bit
// accounting, computed by the matching collective schedule on this
// strategy's topology (ring / 2-D torus / parameter server).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "collectives/aggregators.hpp"
#include "collectives/timing.hpp"
#include "core/schedule.hpp"
#include "net/cost_model.hpp"
#include "net/fault_plan.hpp"
#include "net/network_sim.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace marsit {

class ThreadPool;

/// Which synchronization fabric carries the update.  kTree is the paper's
/// claimed extension target ("easily extended to ... tree all-reduce"): the
/// weighted ⊙ operator folds binomial-tree merges exactly like torus ones.
enum class MarParadigm { kRing, kTorus2d, kParameterServer, kTree };

const char* mar_paradigm_name(MarParadigm paradigm);

/// How a one-bit Marsit round traverses the fabric.  There is one way: the
/// paper's reduce-scatter schedule (core/schedule.hpp), whose per-segment
/// independently seeded fold chains let each rank fold only the segments it
/// owns, so the wire carries 2(M−1)·D sign bits per round and the digests
/// are identical across trainer / simulator / socket backends.
/// Full-precision flush rounds use the all-gather data plane: float
/// summation is order-sensitive, so the flush keeps the single local-mean
/// ordering everywhere.
///
/// The type has one value and nothing branches on it.  It stays only
/// because perfbench assigns it (SyncConfig::sync_mode,
/// dist::WorkerConfig::sync_mode) — remove both with it in the next change
/// to the benchmark.
enum class SyncMode { kReduceScatter };

struct SyncConfig {
  std::size_t num_workers = 0;
  MarParadigm paradigm = MarParadigm::kRing;
  /// Required when paradigm == kTorus2d; rows*cols must equal num_workers.
  std::size_t torus_rows = 0;
  std::size_t torus_cols = 0;
  /// Has one value; nothing reads it (see SyncMode).
  SyncMode sync_mode = SyncMode::kReduceScatter;
  CostModel cost_model;
  std::uint64_t seed = 1;
  /// Sign-sum baselines: Elias-γ recode the growing messages (the paper
  /// compacts baseline transmissions with Elias coding).
  bool use_elias = false;
  /// How often (rounds) the Elias wire image is re-measured from real data;
  /// between refreshes the cached per-contribution sizes are reused.
  std::size_t elias_refresh_interval = 50;
  /// Pool carrying the sharded pack → ⊙/sign-sum → unpack pipeline;
  /// nullptr uses global_thread_pool().  Results are bit-identical for any
  /// pool size: the chunk grid and per-chunk RNG streams depend only on the
  /// payload size and shard_chunk_elements (see parallel/shard.hpp).
  ThreadPool* pool = nullptr;
  /// Elements per sharded chunk (rounded up to whole 64-bit sign words).
  /// Part of the deterministic geometry: changing it changes the per-chunk
  /// RNG streams, so treat it as a tuning constant, not a runtime knob.
  std::size_t shard_chunk_elements = std::size_t{1} << 16;
  /// Price each round as a chunked compute/comm overlap pipeline: chunk i+1
  /// packs while chunk i is in flight and chunk i−1 folds, composing as
  /// max-of-stages instead of sum-of-phases (DESIGN.md §12).  The timing
  /// chunk grid is the execution grid above (shard_chunk_elements), so the
  /// trace lanes line up with the sharded work.  Purely a timing/reporting
  /// switch: round *outputs* are bit-identical with it on or off — the
  /// serial phase decomposition is still reported, with the overlapped
  /// round time alongside (CollectiveTiming::serial_completion_seconds,
  /// PhaseTimes::overlapped).
  bool pipeline_overlap = false;
  /// Fault injection (see net/fault_plan.hpp).  Link-level faults flow into
  /// NetworkSim (retries, jitter, outages, stragglers inflate the timing);
  /// membership faults mark workers absent for whole rounds, and every
  /// strategy degrades gracefully: the reduction re-forms over the survivors
  /// with correct ⊙ weights / majority thresholds / mean normalization,
  /// while per-worker state (compensation, EF memory) of absent workers is
  /// carried forward untouched.  The default (empty) plan takes exactly the
  /// fault-free code paths: outputs and timings are bit-identical to a build
  /// without the fault layer.
  FaultPlan fault_plan;
};

struct SyncStepResult {
  CollectiveTiming timing;
  /// True when this round transmitted full-precision values (PSGD always;
  /// Marsit every K rounds).
  bool full_precision = false;
  /// Wire-format bits used to encode one element this round (the paper's
  /// Figure 3 "Bits" column): 32 for full precision, 1 for one-bit rounds,
  /// ⌈log2(M+1)⌉+1-ish for sign-sums.
  double bits_per_element = 0.0;
  /// Workers that contributed this round (== num_workers unless the fault
  /// plan dropped some).
  std::size_t active_workers = 0;
  /// Workers returning this round after sitting out the previous one
  /// (includes the flush-gated subset below).
  std::size_t rejoined_workers = 0;
  /// Rejoins that landed on a full-precision flush boundary (rejoin_at_flush
  /// windows): the worker's stale per-round state was discarded at the
  /// barrier (see SyncStrategy::on_flush_rejoin).
  std::size_t flush_rejoined_workers = 0;
  /// Senders whose payload stayed corrupted past the retry budget and were
  /// excluded from the round through the survivor path.
  std::size_t demoted_workers = 0;
  /// Per-chunk pack/transfer/fold lane times of a pipelined round (empty
  /// when SyncConfig::pipeline_overlap is off or the round priced a single
  /// chunk trivially).  One run yields both the serial bars and the
  /// overlapped bars of a Figure-5-style plot.
  std::vector<ChunkStageTiming> chunk_stages;
};

class SyncStrategy {
 public:
  explicit SyncStrategy(SyncConfig config);
  virtual ~SyncStrategy() = default;

  SyncStrategy(const SyncStrategy&) = delete;
  SyncStrategy& operator=(const SyncStrategy&) = delete;

  virtual std::string name() const = 0;

  const SyncConfig& config() const { return config_; }
  std::size_t round() const { return round_; }

  /// Aggregates the workers' update vectors into the global update.
  /// `inputs` holds num_workers spans of identical extent; `out` receives
  /// g_t.  Advances the round counter.
  SyncStepResult synchronize(const WorkerSpans& inputs, std::span<float> out);

  /// Full-precision flush period K of this strategy (0 = no flush rounds).
  /// Rejoin barriers and rejoin_at_flush drop-out windows key off this: at a
  /// multiple of K the global state is identical on every worker, so a
  /// returning worker needs no per-worker history.
  virtual std::size_t flush_period() const { return 0; }

  /// Checkpointing: serializes the strategy's cross-round state (round
  /// counter, Marsit compensation, EF residuals, Elias size caches) so a
  /// resumed run continues bit-identically.  Per-round scratch is excluded —
  /// it is lazily rebuilt.  load_state must be paired with the same strategy
  /// and configuration that produced the bytes (the trainer checks names and
  /// seeds).
  virtual void save_state(ckpt::SnapshotWriter& writer) const;
  virtual void load_state(ckpt::SnapshotReader& reader);

 protected:
  virtual SyncStepResult do_synchronize(const WorkerSpans& inputs,
                                        std::span<float> out) = 0;

  /// Hook invoked when `worker` re-enters exactly at a flush boundary (a
  /// rejoin_at_flush window closed here).  Strategies with per-worker
  /// history discard the worker's stale state — at the barrier the global
  /// state is replicated everywhere, so the fresh-start is exact (Marsit
  /// zeros the worker's compensation).  Default: nothing to discard.
  virtual void on_flush_rejoin(std::size_t worker);

  /// Timing of one MAR collective for a d-element payload in the given wire
  /// format, over this round's *surviving* membership: on degraded rounds
  /// the schedule re-forms over active_workers().size() participants (a
  /// torus that no longer tiles re-forms as a smaller torus when the
  /// survivor count still fills whole rows, else as a ring).  Survivors are
  /// renumbered densely onto nodes 0..S−1, so per-node fault attributes
  /// follow re-formed fabric positions, not physical hosts.
  ///
  /// With SyncConfig::pipeline_overlap the round is priced through
  /// pipelined_collective_timing over the shard_chunk_elements grid; the
  /// per-chunk lane times land in `chunk_stages` when non-null (strategies
  /// pass &result.chunk_stages).  Without the flag the collective is priced
  /// in one piece, exactly as before.
  CollectiveTiming mar_timing(
      std::size_t d, const WireFormat& wire,
      std::vector<ChunkStageTiming>* chunk_stages = nullptr);

  /// One unpipelined collective of the configured paradigm (including the
  /// degraded-membership re-forms) for a d-element payload ready at
  /// `start_time`, priced on `net` — both mar_timing paths bottom out here,
  /// the pipelined one once per chunk.
  CollectiveTiming base_collective_timing(std::size_t d,
                                          const WireFormat& wire,
                                          NetworkSim& net, double start_time);

  /// Original indices of the workers present this round, ascending.  Always
  /// the full fleet when the fault plan has no membership faults; never
  /// fewer than two (quorum: the lowest-indexed absent workers are
  /// re-admitted rather than letting the fabric collapse).
  const std::vector<std::size_t>& active_workers() const { return active_; }
  bool degraded_round() const {
    return active_.size() != config_.num_workers;
  }

  /// `inputs` filtered to the active workers.  Returns `inputs` itself on
  /// full-membership rounds (zero-copy); on degraded rounds returns a
  /// member scratch valid until the next call.
  const WorkerSpans& active_inputs(const WorkerSpans& inputs);

  /// Fresh per-round RNG (derived from the config seed and round index) so
  /// strategies are reproducible independent of call interleaving.
  Rng round_rng() const;

  SyncConfig config_;
  NetworkSim net_;
  std::size_t round_ = 0;
  std::vector<std::size_t> active_;  // this round's surviving worker indices
  WorkerSpans active_scratch_;       // filtered-span scratch (degraded rounds)
};

/// Bits/element lookup into a measured per-contribution Elias size cache:
/// cache[c-1] is the measurement at c contributions, clamped at both ends —
/// c == 0 (an empty aggregate, possible when degraded schedules price a
/// not-yet-started segment) reads the 1-contribution entry instead of
/// underflowing, and c beyond the cache (membership grew after the cache
/// was measured on a degraded round) reads the last entry.  An empty cache
/// returns the 2.0 bits/element cold-start fallback.  Exposed for
/// regression tests; the Elias wire closures route through it.
double elias_cache_bits_per_element(const std::vector<double>& cache,
                                    std::size_t contributions);

// --- concrete strategies -----------------------------------------------------

/// PSGD: full-precision aggregation (the non-compression baseline).  Runs on
/// any paradigm, including the parameter server for Figure 1a.
class PsgdSync final : public SyncStrategy {
 public:
  explicit PsgdSync(SyncConfig config);
  std::string name() const override;

 private:
  SyncStepResult do_synchronize(const WorkerSpans& inputs,
                                std::span<float> out) override;
};

/// signSGD with majority vote [21] extended to MAR with growing sign-sums.
/// g_t = eta_s · sign(Σ_m sign(u_m)).
class SignSgdMvSync final : public SyncStrategy {
 public:
  SignSgdMvSync(SyncConfig config, float eta_s);
  std::string name() const override;
  void save_state(ckpt::SnapshotWriter& writer) const override;
  void load_state(ckpt::SnapshotReader& reader) override;

 private:
  SyncStepResult do_synchronize(const WorkerSpans& inputs,
                                std::span<float> out) override;

  float eta_s_;
  std::vector<double> cached_elias_bpe_;
  SignSum sum_;                    // round-to-round sign-sum scratch
  std::vector<BitVector> signs_;  // materialized only on Elias refresh rounds
};

/// EF-signSGD [30] extended to MAR: per-worker error feedback around the
/// scaled-sign compressor; the wire carries sign-sums plus the running scale
/// sum, decoded as (mean scale)·(mean sign).
class EfSignSgdSync final : public SyncStrategy {
 public:
  explicit EfSignSgdSync(SyncConfig config);
  std::string name() const override;
  void save_state(ckpt::SnapshotWriter& writer) const override;
  void load_state(ckpt::SnapshotReader& reader) override;

 private:
  SyncStepResult do_synchronize(const WorkerSpans& inputs,
                                std::span<float> out) override;

  std::vector<Tensor> error_;  // per-worker EF memory, lazily sized
  std::vector<double> cached_elias_bpe_;
  // Round scratch (never serialized): the sharded pipeline materializes
  // every survivor's adjusted vector u_m + e_m and packed signs so the
  // per-chunk finalize stage can run the error-feedback update chunk-locally.
  std::vector<Tensor> adjusted_;   // u_m + e_m, indexed by worker id
  std::vector<float> scales_;      // per-survivor ‖p‖₁/d compressor scales
  SignSum sum_;                    // round-to-round sign-sum scratch
  std::vector<BitVector> signs_;   // per-survivor packed signs
};

/// SSDM [14] extended to MAR: stochastic signs (P(+1) = 1/2 + g_i/(2‖g‖))
/// aggregated in sign-sums; the update is the paper's sign-descent step
/// g_t = eta_s · sign(Σ_m s̃ign(u_m)) — SSDM descends on the sign, the norm
/// only shapes the per-element probability.
class SsdmMarSync final : public SyncStrategy {
 public:
  SsdmMarSync(SyncConfig config, float eta_s);
  std::string name() const override;
  void save_state(ckpt::SnapshotWriter& writer) const override;
  void load_state(ckpt::SnapshotReader& reader) override;

 private:
  SyncStepResult do_synchronize(const WorkerSpans& inputs,
                                std::span<float> out) override;

  float eta_s_;
  std::vector<double> cached_elias_bpe_;
  SignSum sum_;                    // round-to-round sign-sum scratch
  std::vector<BitVector> signs_;  // materialized only on Elias refresh rounds
};

/// SSDM under a parameter server (the single-hop home turf of signSGD
/// methods; Figure 1's comparison point).  Uplink: per-worker stochastic
/// signs; downlink: the aggregated sign decision — one bit each way.
class SsdmPsSync final : public SyncStrategy {
 public:
  SsdmPsSync(SyncConfig config, float eta_s);
  std::string name() const override;

 private:
  SyncStepResult do_synchronize(const WorkerSpans& inputs,
                                std::span<float> out) override;

  float eta_s_;
  SignSum sum_;  // round-to-round sign-sum scratch
};

/// Cascading compression (paper §3.2): decompress-add-recompress at every
/// ring hop.  The negative baseline of Table 1 / Figure 1.  Ring only.
class CascadingSync final : public SyncStrategy {
 public:
  explicit CascadingSync(SyncConfig config);
  std::string name() const override;

 private:
  SyncStepResult do_synchronize(const WorkerSpans& inputs,
                                std::span<float> out) override;
};

/// Per-chunk rng stream of a sharded sign-sum round (signSGD-MV, SSDM-MAR,
/// SSDM-PS).  Chunk 0 continues the round stream itself — a payload that
/// fits in one chunk therefore consumes rng exactly like the serial
/// implementation (bit-identical outputs) — and later chunks split off
/// independent derived streams.
Rng marsit_chunk_rng(std::uint64_t round_seed, std::size_t chunk_index);

/// Marsit (paper Algorithm 1): one-bit ⊙ aggregation with global
/// compensation, full-precision synchronization every K rounds.
struct MarsitOptions {
  /// Global stepsize η_s multiplying the aggregated sign vector.
  float eta_s = 1e-3f;
  /// Full-precision synchronization period; 0 disables it (the paper's
  /// "Marsit" row; K=∞).  K=1 degenerates to PSGD.
  std::size_t full_precision_period = 0;
  /// Ablation switch: disable the global compensation mechanism (the c
  /// vectors stay zero).  Used by bench/ablation_compensation.
  bool use_compensation = true;
  /// Trust region on the periodic full-precision update: the flushed mean
  /// (which carries ~K rounds of compensation mass) is rescaled to this ℓ2
  /// norm when larger (0 disables).  The paper's protocol controls the same
  /// hazard by decaying the learning rate at every full-precision
  /// synchronization; at this reproduction's aggressive per-round stepsizes
  /// an explicit cap is the stabler equivalent (see EXPERIMENTS.md).
  float full_precision_max_norm = 0.0f;
};

class MarsitSync final : public SyncStrategy {
 public:
  MarsitSync(SyncConfig config, MarsitOptions options);
  std::string name() const override;

  const MarsitOptions& options() const { return options_; }

  std::size_t flush_period() const override {
    return options_.full_precision_period;
  }
  void save_state(ckpt::SnapshotWriter& writer) const override;
  void load_state(ckpt::SnapshotReader& reader) override;

  /// Mean compensation-vector ℓ2 norm across workers (0 before the first
  /// one-bit round) — the error-accumulation diagnostic Figure 3 discusses.
  double mean_compensation_norm() const;

  /// Writes c̄_t = (1/M)Σ_m c_t^{(m)} into `out` (zeros before the first
  /// round).  Diagnostic: the paper's proof tracks the auxiliary sequence
  /// ỹ_t = x̃_t − c̄_t, which must follow exact SGD —
  /// tests/core_marsit_dynamics_test.cpp checks that identity numerically.
  void mean_compensation_into(std::span<float> out) const;

 private:
  SyncStepResult do_synchronize(const WorkerSpans& inputs,
                                std::span<float> out) override;
  void on_flush_rejoin(std::size_t worker) override;

  MarsitOptions options_;
  std::vector<Tensor> compensation_;  // per-worker c_t, lazily sized
  std::vector<BitVector> signs_;      // per-worker packed signs scratch
  /// Reduce-scatter steps for the last (survivor count, sign words) seen.
  Schedule rs_schedule_;
};

// --- factory ------------------------------------------------------------------

enum class SyncMethod {
  kPsgd,
  kSignSgdMv,
  kEfSignSgd,
  kSsdm,
  kSsdmPs,
  kCascading,
  kMarsit,
};

const char* sync_method_name(SyncMethod method);

struct MethodOptions {
  /// Global stepsize for sign-valued updates (signSGD-MV, SSDM, Marsit).
  float eta_s = 1e-3f;
  /// Marsit's K; 0 = never full precision.
  std::size_t full_precision_period = 0;
  /// Marsit's flush trust region (see MarsitOptions).
  float full_precision_max_norm = 0.0f;
};

std::unique_ptr<SyncStrategy> make_sync_strategy(SyncMethod method,
                                                 SyncConfig config,
                                                 MethodOptions options = {});

}  // namespace marsit
