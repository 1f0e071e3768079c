#include "core/sync_strategy.hpp"

#include <algorithm>
#include <cmath>

#include "compress/kernels.hpp"
#include "compress/sign_codec.hpp"
#include "net/crc32.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/pipeline.hpp"
#include "parallel/shard.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/validate.hpp"

namespace marsit {

const char* mar_paradigm_name(MarParadigm paradigm) {
  switch (paradigm) {
    case MarParadigm::kRing:
      return "RAR";
    case MarParadigm::kTorus2d:
      return "TAR";
    case MarParadigm::kParameterServer:
      return "PS";
    case MarParadigm::kTree:
      return "TREE";
  }
  return "?";
}

namespace {

/// Block length for the SSDM strategies' stochastic-sign norms (see
/// ssdm_pack): per-block norms keep the sign probabilities informative at
/// training-scale dimensions, like the per-tensor norms of deployed
/// systems.
constexpr std::size_t kSsdmBlock = 64;

std::size_t network_nodes(const SyncConfig& config) {
  return config.paradigm == MarParadigm::kParameterServer
             ? config.num_workers + 1
             : config.num_workers;
}

ThreadPool& strategy_pool(const SyncConfig& config) {
  return config.pool != nullptr ? *config.pool : global_thread_pool();
}

/// Records an Elias refresh round: a counter tick and a trace instant
/// (refreshes are O(M·D) re-encodes, worth spotting on a timeline).
void note_elias_refresh(std::size_t round) {
  if (obs::metrics_enabled()) {
    static const obs::Counter refreshes("sync.elias_refreshes");
    refreshes.increment();
  }
  if (obs::TraceSession* trace = obs::TraceSession::current()) {
    trace->add_instant("elias-refresh round " + std::to_string(round),
                       "refresh", trace->time_offset(), /*track=*/0);
  }
}

/// Publishes the per-round synchronization metrics.  Pure observation of the
/// already-computed step result.
void publish_sync_metrics(const SyncStepResult& result, bool degraded) {
  // Self-contained guard (the caller also checks): keeps the helper safe to
  // call from anywhere without re-paying metric registration.
  if (!obs::metrics_enabled()) {
    return;
  }
  static const obs::Counter rounds("sync.rounds");
  static const obs::Counter degraded_rounds("sync.degraded_rounds");
  static const obs::Counter full_precision_rounds(
      "sync.full_precision_rounds");
  static const obs::Counter wire_bits("sync.wire_bits");
  static const obs::Counter retransmitted_wire_bits(
      "sync.retransmitted_wire_bits");
  static const obs::Counter retransmissions("sync.retransmissions");
  static const obs::Counter rejoins("sync.rejoins");
  static const obs::Counter flush_rejoins("sync.flush_rejoins");
  static const obs::Counter demotions("sync.corruption_demotions");
  static const obs::Gauge active_workers("sync.active_workers");
  static const obs::Gauge bits_per_element("sync.bits_per_element");
  static const obs::Histogram completion_seconds("sync.completion_seconds");
  rounds.increment();
  if (degraded) {
    degraded_rounds.increment();
  }
  rejoins.add(static_cast<double>(result.rejoined_workers));
  flush_rejoins.add(static_cast<double>(result.flush_rejoined_workers));
  demotions.add(static_cast<double>(result.demoted_workers));
  if (result.full_precision) {
    full_precision_rounds.increment();
  }
  wire_bits.add(result.timing.total_wire_bits);
  retransmitted_wire_bits.add(result.timing.retransmitted_wire_bits);
  retransmissions.add(static_cast<double>(result.timing.retransmissions));
  active_workers.set(static_cast<double>(result.active_workers));
  bits_per_element.set(result.bits_per_element);
  completion_seconds.observe(result.timing.completion_seconds);
}

/// Marsit's compensation update c ← (u + c) − g, element-wise.  It
/// recomputes the pack pass's u + c instead of reading a stored copy; the
/// float sum is evaluated exactly as `add` evaluates it, so c ends equal to
/// sub(add(u, c), g) bit for bit.
void update_compensation(std::span<const float> u, std::span<const float> g,
                         std::span<float> c) {
  const std::size_t n = c.size();
  for (std::size_t i = 0; i < n; ++i) {
    c[i] = (u[i] + c[i]) - g[i];
  }
}

}  // namespace

SyncStrategy::SyncStrategy(SyncConfig config)
    : config_(config), net_(network_nodes(config), config.cost_model) {
  MARSIT_CHECK(config_.num_workers >= 2)
      << "synchronization needs at least 2 workers";
  if (config_.paradigm == MarParadigm::kTorus2d) {
    MARSIT_CHECK(config_.torus_rows >= 2 && config_.torus_cols >= 2 &&
                 config_.torus_rows * config_.torus_cols ==
                     config_.num_workers)
        << "torus " << config_.torus_rows << "x" << config_.torus_cols
        << " does not tile " << config_.num_workers << " workers";
  }
  config_.fault_plan.validate();
  // The plan lives inside config_, which is pinned for the strategy's
  // lifetime (strategies are non-copyable).
  net_.set_fault_plan(&config_.fault_plan);
  active_.reserve(config_.num_workers);
  for (std::size_t w = 0; w < config_.num_workers; ++w) {
    active_.push_back(w);
  }
}

SyncStepResult SyncStrategy::synchronize(const WorkerSpans& inputs,
                                         std::span<float> out) {
  MARSIT_CHECK(inputs.size() == config_.num_workers)
      << "got " << inputs.size() << " worker inputs, expected "
      << config_.num_workers;
  MARSIT_CHECK(!out.empty()) << "empty output span";
  for (const auto& in : inputs) {
    MARSIT_CHECK(in.size() == out.size())
        << "worker input extent " << in.size() << " vs output " << out.size();
  }
  net_.begin_round(round_);  // rounds are timed independently
  const FaultPlan& plan = config_.fault_plan;
  const std::size_t k = flush_period();
  std::vector<std::size_t> demoted;       // corruption past the retry budget
  std::vector<std::size_t> flush_rejoins; // rejoins landing on a flush
  std::vector<std::size_t> carry_rejoins; // rejoins with carried-over state
  std::size_t corruption_victims = 0;     // demoted before quorum re-admission
  if (plan.affects_membership()) {
    active_.clear();
    for (std::size_t w = 0; w < config_.num_workers; ++w) {
      if (plan.worker_absent(w, round_, k)) {
        continue;
      }
      if (plan.sender_demoted(w, round_)) {
        // The payload stayed corrupted through every retry; the sender sits
        // this round out rather than folding garbage into the aggregate.
        demoted.push_back(w);
        continue;
      }
      active_.push_back(w);
    }
    corruption_victims = demoted.size();
    // Quorum: a reduction needs at least two members.  Re-admit the
    // lowest-indexed absent workers (deterministic) rather than letting the
    // fabric collapse; demoted senders are re-admitted only as a last
    // resort (modeling retransmit-until-clean — their burned attempts are
    // still charged below).
    for (std::size_t w = 0; active_.size() < 2 && w < config_.num_workers;
         ++w) {
      if (std::find(active_.begin(), active_.end(), w) == active_.end() &&
          std::find(demoted.begin(), demoted.end(), w) == demoted.end()) {
        active_.insert(std::lower_bound(active_.begin(), active_.end(), w),
                       w);
      }
    }
    while (active_.size() < 2 && !demoted.empty()) {
      const std::size_t w = demoted.front();
      demoted.erase(demoted.begin());
      active_.insert(std::lower_bound(active_.begin(), active_.end(), w), w);
    }
    // Contract: whatever degradation + quorum re-admission produced must be
    // a valid membership — sorted unique ids in range, at least 2 of them —
    // before any paradigm re-forms over it.
    MARSIT_VALIDATE_CALL(validate::membership(active_, config_.num_workers));
    // Rejoins: workers present now that sat out the previous round.  A
    // rejoin_at_flush window closing exactly here re-enters at the barrier —
    // the strategy discards the worker's stale per-worker state, which is
    // exact because the flush state is replicated on every worker.
    if (round_ > 0) {
      for (const std::size_t w : active_) {
        if (!plan.worker_absent(w, round_ - 1, k)) {
          continue;
        }
        if (plan.flush_rejoin_at(w, round_, k)) {
          flush_rejoins.push_back(w);
          on_flush_rejoin(w);
        } else {
          carry_rejoins.push_back(w);
        }
      }
    }
    MARSIT_VALIDATE_CALL(
        validate::rejoin_membership(flush_rejoins, config_.num_workers,
                                    round_, k));
    MARSIT_VALIDATE_CALL(
        validate::rejoin_membership(carry_rejoins, config_.num_workers,
                                    round_, 0));
  }
  SyncStepResult result = do_synchronize(inputs, out);
  result.active_workers = active_.size();
  result.rejoined_workers = flush_rejoins.size() + carry_rejoins.size();
  result.flush_rejoined_workers = flush_rejoins.size();
  result.demoted_workers = demoted.size();
  if (corruption_victims > 0) {
    // Every demoted sender burned its payload (plus the CRC footer) on the
    // initial attempt and all retries before giving up; those bits hit the
    // wire even though the round excluded the sender.
    const double attempts = static_cast<double>(plan.max_retries + 1);
    const double burned_bits =
        attempts * (result.bits_per_element * static_cast<double>(out.size()) +
                    kCrcFooterBits);
    result.timing.retransmitted_wire_bits +=
        burned_bits * static_cast<double>(corruption_victims);
    result.timing.total_wire_bits +=
        burned_bits * static_cast<double>(corruption_victims);
    result.timing.retransmissions +=
        (plan.max_retries + 1) * corruption_victims;
  }
  if (obs::TraceSession* trace = obs::TraceSession::current()) {
    for (const std::size_t w : flush_rejoins) {
      trace->add_instant("flush-rejoin worker " + std::to_string(w),
                         "rejoin", trace->time_offset(), /*track=*/0);
    }
    for (const std::size_t w : carry_rejoins) {
      trace->add_instant("rejoin worker " + std::to_string(w), "rejoin",
                         trace->time_offset(), /*track=*/0);
    }
    for (const std::size_t w : demoted) {
      trace->add_instant("corruption-demoted worker " + std::to_string(w),
                         "demote", trace->time_offset(), /*track=*/0);
    }
  }
  if (obs::metrics_enabled()) {
    publish_sync_metrics(result, degraded_round());
  }
  ++round_;
  return result;
}

void SyncStrategy::on_flush_rejoin(std::size_t /*worker*/) {}

void SyncStrategy::save_state(ckpt::SnapshotWriter& writer) const {
  writer.u64(static_cast<std::uint64_t>(round_));
}

void SyncStrategy::load_state(ckpt::SnapshotReader& reader) {
  round_ = static_cast<std::size_t>(reader.u64());
}

const WorkerSpans& SyncStrategy::active_inputs(const WorkerSpans& inputs) {
  if (!degraded_round()) {
    return inputs;
  }
  active_scratch_.clear();
  active_scratch_.reserve(active_.size());
  for (std::size_t w : active_) {
    active_scratch_.push_back(inputs[w]);
  }
  return active_scratch_;
}

CollectiveTiming SyncStrategy::base_collective_timing(std::size_t d,
                                                      const WireFormat& wire,
                                                      NetworkSim& net,
                                                      double start_time) {
  const std::size_t m = active_.size();
  switch (config_.paradigm) {
    case MarParadigm::kRing:
      return ring_allreduce_timing(m, d, wire, net, start_time);
    case MarParadigm::kTorus2d: {
      // A degraded torus re-forms by the rule the reduce-scatter schedule
      // folds with: a smaller torus while the survivors fill whole rows,
      // else a ring of survivors.
      const std::size_t rows = reformed_torus_rows(m, config_.torus_cols);
      if (rows == 0) {
        return ring_allreduce_timing(m, d, wire, net, start_time);
      }
      MARSIT_VALIDATE_CALL(
          validate::torus_shape(rows, config_.torus_cols, m));
      return torus_allreduce_timing(rows, config_.torus_cols, d, wire, net,
                                    start_time);
    }
    case MarParadigm::kParameterServer:
      return ps_allreduce_timing(m, d, wire, net, start_time);
    case MarParadigm::kTree:
      return tree_allreduce_timing(m, d, wire, net, start_time);
  }
  MARSIT_CHECK(false) << "unreachable paradigm";
  return {};
}

CollectiveTiming SyncStrategy::mar_timing(
    std::size_t d, const WireFormat& wire,
    std::vector<ChunkStageTiming>* chunk_stages) {
  if (chunk_stages != nullptr) {
    chunk_stages->clear();
  }
  if (!config_.pipeline_overlap) {
    return base_collective_timing(d, wire, net_, 0.0);
  }
  return pipelined_collective_timing(
      d, config_.shard_chunk_elements, wire, net_,
      [this](std::size_t /*chunk_index*/, std::size_t elements,
             const WireFormat& chunk_wire, NetworkSim& net,
             double start_time) {
        return base_collective_timing(elements, chunk_wire, net, start_time);
      },
      /*chunk_ready=*/{}, chunk_stages);
}

Rng SyncStrategy::round_rng() const {
  return Rng(derive_seed(config_.seed, round_));
}

double elias_cache_bits_per_element(const std::vector<double>& cache,
                                    std::size_t contributions) {
  if (cache.empty()) {
    return 2.0;  // cold-start fallback, replaced on first refresh
  }
  // Clamp at both ends: contributions == 0 must not wrap to SIZE_MAX, and a
  // membership larger than the (degraded-round) measurement reads the last
  // entry.
  const std::size_t clamped =
      std::clamp<std::size_t>(contributions, 1, cache.size());
  return cache[clamped - 1];
}

// --- PSGD ----------------------------------------------------------------

PsgdSync::PsgdSync(SyncConfig config) : SyncStrategy(config) {}

std::string PsgdSync::name() const {
  return std::string("PSGD-") + mar_paradigm_name(config_.paradigm);
}

SyncStepResult PsgdSync::do_synchronize(const WorkerSpans& inputs,
                                        std::span<float> out) {
  // Mean over the survivors: dropping absent workers renormalizes the
  // denominator automatically.
  aggregate_mean(active_inputs(inputs), out);
  SyncStepResult result;
  result.timing =
      mar_timing(out.size(), full_precision_wire(), &result.chunk_stages);
  result.full_precision = true;
  result.bits_per_element = 32.0;
  return result;
}

// --- shared sign-sum plumbing ----------------------------------------------

Rng marsit_chunk_rng(std::uint64_t round_seed, std::size_t chunk_index) {
  return Rng(chunk_index == 0 ? round_seed
                              : derive_seed(round_seed, chunk_index));
}

namespace {

bool elias_refresh_due(const SyncConfig& config, std::size_t round,
                       const std::vector<double>& elias_cache) {
  return config.use_elias &&
         (elias_cache.empty() ||
          (config.elias_refresh_interval > 0 &&
           round % config.elias_refresh_interval == 0));
}

/// The wire format (and headline bits/element) of a sign-sum round, from the
/// configured encoding and the cached Elias measurements.
struct SignSumWireInfo {
  WireFormat wire;
  double bits_per_element = 0.0;
};

SignSumWireInfo sign_sum_wire_info(const SyncConfig& config,
                                   const std::vector<double>& elias_cache,
                                   std::size_t scalars_per_message,
                                   std::size_t contributing_workers) {
  SignSumWireInfo info;
  if (config.use_elias) {
    // Copy the cache into the closure: the wire format must stay valid and
    // self-contained for the duration of the timing pass.
    std::vector<double> cache = elias_cache;
    info.wire = sign_sum_elias_wire(
        config.cost_model, [cache](std::size_t contributions) {
          return elias_cache_bits_per_element(cache, contributions);
        });
    info.bits_per_element = elias_cache.empty() ? 2.0 : elias_cache.back();
  } else {
    info.wire = sign_sum_wire(config.cost_model, scalars_per_message);
    info.bits_per_element = static_cast<double>(
        sign_sum_bits_per_element(contributing_workers));
  }
  return info;
}

/// Geometry + knobs of one sharded majority round (signSGD-MV, SSDM-MAR,
/// SSDM-PS): every chunk packs all workers, accumulates the sign-sum,
/// majority-votes and unpacks — chunk-locally, with its own rng stream.
struct MajorityPipeline {
  float eta_s = 0.0f;
  /// false → deterministic signs (rng untouched); true → SSDM stochastic
  /// signs with block-local norms.
  bool stochastic = false;
  std::size_t ssdm_block = 0;
  std::uint64_t round_seed = 0;
  ThreadPool* pool = nullptr;
  std::size_t chunk_elements = 0;
};

/// out = eta_s · sign(Σ_m pack(u_m)), sharded over word-aligned chunks.
/// `sum` receives the full sign-sum (sized by the caller).  When `signs_out`
/// is non-null the per-worker packed vectors are also materialized there
/// (Elias refresh rounds measure their incremental wire sizes); packing
/// consumes rng identically either way, so the round's output does not
/// depend on whether a refresh happened.
void sharded_majority_sync(const WorkerSpans& inputs, SignSum& sum,
                           std::vector<BitVector>* signs_out,
                           std::span<float> out,
                           const MajorityPipeline& cfg) {
  const std::size_t d = out.size();
  const std::size_t m = inputs.size();
  const ShardPlan plan(d, cfg.chunk_elements);
  MARSIT_CHECK(!cfg.stochastic || cfg.ssdm_block > 0)
      << "sharded stochastic packing needs block-local norms";
  MARSIT_CHECK(!cfg.stochastic ||
               plan.chunk_elements() % cfg.ssdm_block == 0)
      << "shard chunk " << plan.chunk_elements()
      << " must be a multiple of the SSDM block " << cfg.ssdm_block;
  // Reallocate on *either* geometry change: the dimension, or the worker
  // count — degraded rounds shrink and re-grow M while d stays fixed, and a
  // stale vector count would index out of bounds when M grows back.
  if (signs_out != nullptr &&
      (signs_out->size() != m || signs_out->front().size() != d)) {
    signs_out->assign(m, BitVector(d));
  }
  MARSIT_VALIDATE_CALL(validate_shard_plan(plan));
  // Two-lane pipeline over the chunk grid: while chunk c's votes are being
  // tallied, chunk c+1 is already packing — the same wavefront the timing
  // model prices (DESIGN.md §12).  Stage scratch comes from the per-thread
  // arena, so the steady-state hot loop performs zero heap allocations
  // (ScratchArena::total_grows() is the counting hook the tests pin).
  const PipelineStage stages[] = {
      // pack: compress every worker's chunk and accumulate the sign-sum.
      // All rng consumption lives here, in worker order, exactly as the
      // serial loop consumed it.
      {[&](std::size_t c, ScratchArena& arena) {
        const Shard shard = plan.chunk(c);
        const std::size_t n = shard.size();
        const std::size_t w0 = shard.word_begin();
        const std::size_t nw = shard.num_words();
        auto values = sum.values_mut().subspan(shard.begin, n);
        std::fill(values.begin(), values.end(), 0);
        Rng rng = marsit_chunk_rng(cfg.round_seed, c);
        const std::span<std::uint64_t> scratch_span =
            signs_out == nullptr ? arena.words(nw)
                                 : std::span<std::uint64_t>{};
        for (std::size_t w = 0; w < m; ++w) {
          const std::span<std::uint64_t> words =
              signs_out != nullptr ? (*signs_out)[w].words().subspan(w0, nw)
                                   : scratch_span;
          if (cfg.stochastic) {
            ssdm_pack_words(inputs[w].subspan(shard.begin, n), rng,
                            cfg.ssdm_block, words);
          } else {
            kernels::pack_signs_words(inputs[w].subspan(shard.begin, n),
                                      words);
          }
          kernels::accumulate_counts_words(words, values);
        }
      }},
      // vote: majority over the tallied counts, decoded into the output.
      {[&](std::size_t c, ScratchArena& arena) {
        const Shard shard = plan.chunk(c);
        const std::size_t n = shard.size();
        const std::span<std::uint64_t> verdict =
            arena.words(shard.num_words());
        kernels::majority_words(sum.values_mut().subspan(shard.begin, n),
                                verdict);
        kernels::unpack_signs_words(verdict, cfg.eta_s,
                                    out.subspan(shard.begin, n));
      }},
  };
  run_chunk_pipeline(*cfg.pool, plan.num_chunks(), stages);
  sum.set_contributions(m);
}

}  // namespace

// --- signSGD with majority vote ---------------------------------------------

SignSgdMvSync::SignSgdMvSync(SyncConfig config, float eta_s)
    : SyncStrategy(config), eta_s_(eta_s) {
  MARSIT_CHECK(eta_s_ > 0.0f) << "signSGD-MV needs a positive global stepsize";
}

std::string SignSgdMvSync::name() const {
  return std::string("signSGD-") + mar_paradigm_name(config_.paradigm);
}

void SignSgdMvSync::save_state(ckpt::SnapshotWriter& writer) const {
  SyncStrategy::save_state(writer);
  writer.f64_vec(cached_elias_bpe_);
}

void SignSgdMvSync::load_state(ckpt::SnapshotReader& reader) {
  SyncStrategy::load_state(reader);
  cached_elias_bpe_ = reader.f64_vec();
}

SyncStepResult SignSgdMvSync::do_synchronize(const WorkerSpans& inputs,
                                             std::span<float> out) {
  const std::size_t d = out.size();
  if (sum_.size() != d) {
    sum_ = SignSum(d);
  }
  const bool refresh = elias_refresh_due(config_, round_, cached_elias_bpe_);
  MajorityPipeline pipeline;
  pipeline.eta_s = eta_s_;
  pipeline.pool = &strategy_pool(config_);
  pipeline.chunk_elements = config_.shard_chunk_elements;
  // Majority-vote over the survivors; absent workers simply cast no vote.
  sharded_majority_sync(active_inputs(inputs), sum_,
                        refresh ? &signs_ : nullptr, out, pipeline);
  if (refresh) {
    // Size measurement only — the sign-sum itself was already computed by
    // the sharded pipeline and is reused, not re-folded.
    cached_elias_bpe_ = measure_elias_bits_per_element(signs_, &sum_);
    note_elias_refresh(round_);
  }
  const SignSumWireInfo info =
      sign_sum_wire_info(config_, cached_elias_bpe_, 0, active_workers().size());

  SyncStepResult result;
  result.timing = mar_timing(d, info.wire, &result.chunk_stages);
  result.bits_per_element = info.bits_per_element;
  return result;
}

// --- EF-signSGD ---------------------------------------------------------------

EfSignSgdSync::EfSignSgdSync(SyncConfig config) : SyncStrategy(config) {}

std::string EfSignSgdSync::name() const {
  return std::string("EF-signSGD-") + mar_paradigm_name(config_.paradigm);
}

void EfSignSgdSync::save_state(ckpt::SnapshotWriter& writer) const {
  SyncStrategy::save_state(writer);
  writer.u64(static_cast<std::uint64_t>(error_.size()));
  for (const Tensor& e : error_) {
    writer.f32_span(e.span());
  }
  writer.f64_vec(cached_elias_bpe_);
}

void EfSignSgdSync::load_state(ckpt::SnapshotReader& reader) {
  SyncStrategy::load_state(reader);
  const std::uint64_t count = reader.u64();
  MARSIT_CHECK(count == 0 || count == config_.num_workers)
      << "EF state for " << count << " workers, expected "
      << config_.num_workers;
  error_.clear();
  error_.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    error_.push_back(Tensor::from_vector(reader.f32_vec()));
  }
  cached_elias_bpe_ = reader.f64_vec();
}

SyncStepResult EfSignSgdSync::do_synchronize(const WorkerSpans& inputs,
                                             std::span<float> out) {
  const std::size_t d = out.size();
  if (error_.empty()) {
    error_.assign(config_.num_workers, Tensor(d));
  }
  // Only the survivors compress and contribute; an absent worker's EF
  // memory e_m is carried forward untouched and re-enters the feedback loop
  // when the worker returns.
  const std::vector<std::size_t>& active = active_workers();
  const std::size_t s = active.size();
  if (sum_.size() != d) {
    sum_ = SignSum(d);
  }
  if (adjusted_.empty() || adjusted_.front().size() != d) {
    adjusted_.assign(config_.num_workers, Tensor(d));
  }
  // Reallocate on either geometry change (see sharded_majority_sync).
  if (signs_.size() != s || signs_.front().size() != d) {
    signs_.assign(s, BitVector(d));
  }
  scales_.resize(s);

  // Whole-vector pre-pass: the compressor scale is the *global* ‖p‖₁/d, so
  // it cannot be computed chunk-locally.  Float order matches the previous
  // serial loop (add, then the scale reduction, per worker in turn).
  double scale_sum = 0.0;
  for (std::size_t i = 0; i < s; ++i) {
    const std::size_t w = active[i];
    add(inputs[w], error_[w].span(), adjusted_[w].span());
    scales_[i] = scaled_sign_scale(adjusted_[w].span());
    scale_sum += scales_[i];
  }
  const float mean_scale =
      static_cast<float>(scale_sum / static_cast<double>(s));

  // Sharded two-lane pipeline (same wavefront as sharded_majority_sync):
  // pack accumulates the sign-sum, finalize decodes the mean and runs the
  // per-worker error-feedback update — all chunk-local, no rng anywhere, so
  // the outputs are bit-identical to the old whole-vector loop.
  const ShardPlan plan(d, config_.shard_chunk_elements);
  MARSIT_VALIDATE_CALL(validate_shard_plan(plan));
  const float inv_s = 1.0f / static_cast<float>(s);
  ThreadPool& pool = strategy_pool(config_);
  const PipelineStage stages[] = {
      {[&](std::size_t c, ScratchArena& /*arena*/) {
        const Shard shard = plan.chunk(c);
        const std::size_t n = shard.size();
        const std::size_t w0 = shard.word_begin();
        const std::size_t nw = shard.num_words();
        auto values = sum_.values_mut().subspan(shard.begin, n);
        std::fill(values.begin(), values.end(), 0);
        for (std::size_t i = 0; i < s; ++i) {
          const std::size_t w = active[i];
          const std::span<std::uint64_t> words =
              signs_[i].words().subspan(w0, nw);
          kernels::pack_signs_words(
              adjusted_[w].span().subspan(shard.begin, n), words);
          kernels::accumulate_counts_words(words, values);
        }
      }},
      {[&](std::size_t c, ScratchArena& arena) {
        const Shard shard = plan.chunk(c);
        const std::size_t n = shard.size();
        const std::size_t w0 = shard.word_begin();
        const std::size_t nw = shard.num_words();
        // Decode the mean exactly as SignSum::mean_into + scale() did:
        // int sum → ·(1/s) first, the mean scale as a separate multiply.
        const auto values = sum_.values_mut().subspan(shard.begin, n);
        const auto out_chunk = out.subspan(shard.begin, n);
        for (std::size_t el = 0; el < n; ++el) {
          out_chunk[el] = static_cast<float>(values[el]) * inv_s;
        }
        scale(out_chunk, mean_scale);
        // e_m ← p − decode(scale_m, signs_m), chunk-locally per survivor.
        const std::span<float> delta = arena.floats(n);
        for (std::size_t i = 0; i < s; ++i) {
          const std::size_t w = active[i];
          kernels::unpack_signs_words(signs_[i].words().subspan(w0, nw),
                                      scales_[i], delta);
          sub(adjusted_[w].span().subspan(shard.begin, n), delta,
              error_[w].span().subspan(shard.begin, n));
        }
      }},
  };
  run_chunk_pipeline(pool, plan.num_chunks(), stages);
  sum_.set_contributions(s);

  if (elias_refresh_due(config_, round_, cached_elias_bpe_)) {
    // Size measurement only — bit-identical to the aggregate the pipeline
    // already produced, so the round's output does not depend on whether a
    // refresh happened.
    cached_elias_bpe_ = measure_elias_bits_per_element(signs_, &sum_);
    note_elias_refresh(round_);
  }
  // One float scale rides along per message (the running scale sum).  The
  // decoded mean renormalizes by the survivor count on degraded rounds.
  const SignSumWireInfo info =
      sign_sum_wire_info(config_, cached_elias_bpe_, 1, s);

  SyncStepResult result;
  result.timing = mar_timing(d, info.wire, &result.chunk_stages);
  result.bits_per_element = info.bits_per_element;
  return result;
}

// --- SSDM under MAR -------------------------------------------------------------

SsdmMarSync::SsdmMarSync(SyncConfig config, float eta_s)
    : SyncStrategy(config), eta_s_(eta_s) {
  MARSIT_CHECK(eta_s_ > 0.0f) << "SSDM needs a positive global stepsize";
}

std::string SsdmMarSync::name() const {
  return std::string("SSDM-") + mar_paradigm_name(config_.paradigm);
}

void SsdmMarSync::save_state(ckpt::SnapshotWriter& writer) const {
  SyncStrategy::save_state(writer);
  writer.f64_vec(cached_elias_bpe_);
}

void SsdmMarSync::load_state(ckpt::SnapshotReader& reader) {
  SyncStrategy::load_state(reader);
  cached_elias_bpe_ = reader.f64_vec();
}

SyncStepResult SsdmMarSync::do_synchronize(const WorkerSpans& inputs,
                                           std::span<float> out) {
  const std::size_t d = out.size();
  if (sum_.size() != d) {
    sum_ = SignSum(d);
  }
  const bool refresh = elias_refresh_due(config_, round_, cached_elias_bpe_);
  MajorityPipeline pipeline;
  pipeline.eta_s = eta_s_;
  pipeline.stochastic = true;
  pipeline.ssdm_block = kSsdmBlock;
  pipeline.round_seed = derive_seed(config_.seed, round_);
  pipeline.pool = &strategy_pool(config_);
  pipeline.chunk_elements = config_.shard_chunk_elements;
  sharded_majority_sync(active_inputs(inputs), sum_,
                        refresh ? &signs_ : nullptr, out, pipeline);
  if (refresh) {
    // Size measurement only — the sharded pipeline's sum is reused.
    cached_elias_bpe_ = measure_elias_bits_per_element(signs_, &sum_);
    note_elias_refresh(round_);
  }
  const SignSumWireInfo info =
      sign_sum_wire_info(config_, cached_elias_bpe_, 0, active_workers().size());

  SyncStepResult result;
  result.timing = mar_timing(d, info.wire, &result.chunk_stages);
  result.bits_per_element = info.bits_per_element;
  return result;
}

// --- SSDM under PS ---------------------------------------------------------------

SsdmPsSync::SsdmPsSync(SyncConfig config, float eta_s)
    : SyncStrategy(config), eta_s_(eta_s) {
  MARSIT_CHECK(config_.paradigm == MarParadigm::kParameterServer)
      << "SsdmPsSync requires the parameter-server paradigm";
  MARSIT_CHECK(eta_s_ > 0.0f) << "SSDM needs a positive global stepsize";
}

std::string SsdmPsSync::name() const { return "SSDM-PS"; }

SyncStepResult SsdmPsSync::do_synchronize(const WorkerSpans& inputs,
                                          std::span<float> out) {
  // Uplink: each worker's stochastic signs; server majority-votes them and
  // broadcasts the one-bit decision.
  const std::size_t d = out.size();
  if (sum_.size() != d) {
    sum_ = SignSum(d);
  }
  MajorityPipeline pipeline;
  pipeline.eta_s = eta_s_;
  pipeline.stochastic = true;
  pipeline.ssdm_block = kSsdmBlock;
  pipeline.round_seed = derive_seed(config_.seed, round_);
  pipeline.pool = &strategy_pool(config_);
  pipeline.chunk_elements = config_.shard_chunk_elements;
  sharded_majority_sync(active_inputs(inputs), sum_, nullptr, out, pipeline);

  WireFormat wire;
  wire.reduce_bits = [](std::size_t elements, std::size_t) {
    return static_cast<double>(elements) + 32.0;
  };
  wire.gather_bits = [](std::size_t elements) {
    return static_cast<double>(elements) + 32.0;
  };
  wire.initial_pack_seconds_per_element =
      1.0 / config_.cost_model.stochastic_sign_rate;
  wire.serial_seconds_per_element =
      1.0 / config_.cost_model.sign_unpack_rate;
  wire.final_unpack_seconds_per_element =
      1.0 / config_.cost_model.sign_unpack_rate;

  SyncStepResult result;
  result.timing = mar_timing(d, wire, &result.chunk_stages);
  result.bits_per_element = 1.0;
  return result;
}

// --- cascading compression --------------------------------------------------------

CascadingSync::CascadingSync(SyncConfig config) : SyncStrategy(config) {
  MARSIT_CHECK(config_.paradigm == MarParadigm::kRing)
      << "cascading compression is defined on the ring paradigm";
}

std::string CascadingSync::name() const { return "Cascading-RAR"; }

SyncStepResult CascadingSync::do_synchronize(const WorkerSpans& inputs,
                                             std::span<float> out) {
  Rng rng = round_rng();
  // The cascade chain re-forms over the survivors (its 1/M normalization
  // follows the chain length).
  cascading_aggregate(active_inputs(inputs), rng, out);

  SyncStepResult result;
  result.timing = mar_timing(out.size(), cascading_wire(config_.cost_model),
                             &result.chunk_stages);
  result.bits_per_element = 1.0;
  return result;
}

// --- Marsit -------------------------------------------------------------------------

MarsitSync::MarsitSync(SyncConfig config, MarsitOptions options)
    : SyncStrategy(config), options_(options) {
  // All four paradigms are supported: ring and torus are the paper's
  // multi-hop schedules; the parameter server (server colocated at rank 0)
  // and binomial tree exist as comparison baselines with the same ⊙ fold
  // semantics, so the cross-backend conformance matrix can cover them.
  MARSIT_CHECK(options_.eta_s > 0.0f) << "Marsit needs a positive eta_s";
}

std::string MarsitSync::name() const {
  // Appends (not operator+ chains): gcc 12's -Wrestrict misfires on
  // libstdc++'s operator+(const char*, string&&) when it inlines here.
  std::string base = "Marsit";
  if (options_.full_precision_period > 0) {
    base += '-';
    base += std::to_string(options_.full_precision_period);
  }
  base += '-';
  base += mar_paradigm_name(config_.paradigm);
  return base;
}

void MarsitSync::save_state(ckpt::SnapshotWriter& writer) const {
  SyncStrategy::save_state(writer);
  writer.u64(static_cast<std::uint64_t>(compensation_.size()));
  for (const Tensor& c : compensation_) {
    writer.f32_span(c.span());
  }
}

void MarsitSync::load_state(ckpt::SnapshotReader& reader) {
  SyncStrategy::load_state(reader);
  const std::uint64_t count = reader.u64();
  MARSIT_CHECK(count == 0 || count == config_.num_workers)
      << "compensation for " << count << " workers, expected "
      << config_.num_workers;
  compensation_.clear();
  compensation_.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    compensation_.push_back(Tensor::from_vector(reader.f32_vec()));
  }
}

void MarsitSync::on_flush_rejoin(std::size_t worker) {
  // The worker re-enters at the flush barrier: its pre-drop residual is
  // stale history of a trajectory it did not follow — discard it before the
  // flush mean folds compensations in.  The global flush state is identical
  // on every worker, so the fresh start is exact.
  if (worker < compensation_.size()) {
    compensation_[worker].zero();
  }
}

double MarsitSync::mean_compensation_norm() const {
  if (compensation_.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (const auto& c : compensation_) {
    total += l2_norm(c.span());
  }
  return total / static_cast<double>(compensation_.size());
}

void MarsitSync::mean_compensation_into(std::span<float> out) const {
  zero(out);
  if (compensation_.empty()) {
    return;
  }
  for (const auto& c : compensation_) {
    MARSIT_CHECK(c.size() == out.size())
        << "compensation extent " << c.size() << " vs out " << out.size();
    axpy(1.0f, c.span(), out);
  }
  scale(out, 1.0f / static_cast<float>(compensation_.size()));
}

SyncStepResult MarsitSync::do_synchronize(const WorkerSpans& inputs,
                                          std::span<float> out) {
  const std::size_t d = out.size();
  const std::size_t m = config_.num_workers;
  if (compensation_.empty()) {
    compensation_.assign(m, Tensor(d));
  }
  MARSIT_CHECK(compensation_.front().size() == d)
      << "gradient dimension changed between rounds";

  SyncStepResult result;
  const bool full_precision =
      options_.full_precision_period > 0 &&
      round_ % options_.full_precision_period == 0;

  // On a degraded round only the survivors contribute; absent workers keep
  // their compensation untouched, so their residual re-enters the aggregate
  // when they return (Algorithm 1's line 1 still folds it in).
  const auto& active = active_workers();
  const std::size_t s = active.size();
  ThreadPool& pool = strategy_pool(config_);
  const ShardPlan plan(d, config_.shard_chunk_elements);
  MARSIT_VALIDATE_CALL(validate_shard_plan(plan));

  if (full_precision) {
    // Lines 12–13: exact mean of u_m + c_m, compensation reset — one flat
    // chunk pass.  Per element it runs aggregate_mean's ops in its order
    // (zero, += each survivor's u + c, × 1/s), so the chunking is exact.
    const auto flush_chunk = [&](std::size_t c, ScratchArena& arena) {
      const Shard shard = plan.chunk(c);
      const std::size_t n = shard.size();
      const auto out_chunk = out.subspan(shard.begin, n);
      const auto adjusted = arena.floats(n);
      zero(out_chunk);
      for (const std::size_t w : active) {
        const auto comp = compensation_[w].span().subspan(shard.begin, n);
        add(inputs[w].subspan(shard.begin, n), comp, adjusted);
        axpy(1.0f, adjusted, out_chunk);
        zero(comp);
      }
      scale(out_chunk, 1.0f / static_cast<float>(s));
    };
    run_chunk_pass(pool, plan.num_chunks(), flush_chunk);
    // The norm is an ordered reduction over the whole vector: serial.
    if (options_.full_precision_max_norm > 0.0f) {
      const float norm = l2_norm(out);
      if (norm > options_.full_precision_max_norm) {
        scale(out, options_.full_precision_max_norm / norm);
      }
    }
    result.timing =
        mar_timing(d, full_precision_wire(), &result.chunk_stages);
    result.full_precision = true;
    result.bits_per_element = 32.0;
    return result;
  }

  // One-bit round: Algorithm 1's lines 1 and 4–10 — compensation fold-in
  // and sign packing, the ⊙ reduction, unpacking and the compensation
  // update.  Survivors pack into signs_[0..s): the schedule re-forms over
  // them, so a degraded M-worker round folds exactly like a native
  // s-worker one.
  if (signs_.empty() || signs_.front().size() != d) {
    signs_.assign(m, BitVector(d));
  }
  const std::uint64_t round_seed = derive_seed(config_.seed, round_);
  // Line 1 of Algorithm 1, fused with the sign packing: u + c lives only in
  // a chunk-sized arena block, per survivor.
  const auto pack_chunk = [&](std::size_t c, ScratchArena& arena) {
    const Shard shard = plan.chunk(c);
    const std::size_t n = shard.size();
    const std::size_t w0 = shard.word_begin();
    const std::size_t nw = shard.num_words();
    const auto adjusted = arena.floats(n);
    for (std::size_t i = 0; i < s; ++i) {
      const std::size_t w = active[i];
      add(inputs[w].subspan(shard.begin, n),
          compensation_[w].span().subspan(shard.begin, n), adjusted);
      kernels::pack_signs_words(adjusted, signs_[i].words().subspan(w0, nw));
    }
  };
  // Lines 9–10: g_t = eta_s · sign-vector; c_{t+1}^{(m)} = (u + c) − g_t.
  // The pack's u + c is recomputed here rather than kept: the compensation
  // chunk is untouched between the two passes and fl(u + c) is a pure
  // function of its operands, so the update is bit-identical.
  const auto unpack_chunk = [&](std::size_t c, ScratchArena& /*arena*/) {
    const Shard shard = plan.chunk(c);
    const std::size_t n = shard.size();
    const auto out_chunk = out.subspan(shard.begin, n);
    kernels::unpack_signs_words(
        signs_.front().words().subspan(shard.word_begin(), shard.num_words()),
        options_.eta_s, out_chunk);
    if (options_.use_compensation) {
      for (const std::size_t w : active) {
        update_compensation(inputs[w].subspan(shard.begin, n), out_chunk,
                            compensation_[w].span().subspan(shard.begin, n));
      }
    }
  };
  // Pack and unpack consume no rng and own disjoint chunks, so each is one
  // flat chunk pass; the fold runs once over the full word range in
  // between — the segment-seeded chains partition the words by fabric
  // segment (the reduce-scatter ownership grid), not by shard chunk.
  run_chunk_pass(pool, plan.num_chunks(), pack_chunk);
  const std::size_t num_words = signs_.front().words().size();
  if (rs_schedule_.members != s || rs_schedule_.units != num_words) {
    rs_schedule_ = reduce_scatter_schedule(config_.paradigm, s,
                                           config_.torus_cols, num_words);
  }
  fold_schedule(rs_schedule_, signs_, round_seed);
  run_chunk_pass(pool, plan.num_chunks(), unpack_chunk);

  result.timing = mar_timing(d, marsit_wire(config_.cost_model),
                             &result.chunk_stages);
  result.bits_per_element = 1.0;
  // The residual-magnitude gauge costs an O(M·D) norm pass, so it is
  // computed only when someone is listening.
  if (obs::metrics_enabled()) {
    static const obs::Gauge compensation_norm("marsit.compensation_norm");
    compensation_norm.set(mean_compensation_norm());
  }
  return result;
}

// --- factory ---------------------------------------------------------------------

const char* sync_method_name(SyncMethod method) {
  switch (method) {
    case SyncMethod::kPsgd:
      return "PSGD";
    case SyncMethod::kSignSgdMv:
      return "signSGD";
    case SyncMethod::kEfSignSgd:
      return "EF-signSGD";
    case SyncMethod::kSsdm:
      return "SSDM";
    case SyncMethod::kSsdmPs:
      return "SSDM-PS";
    case SyncMethod::kCascading:
      return "Cascading";
    case SyncMethod::kMarsit:
      return "Marsit";
  }
  return "?";
}

std::unique_ptr<SyncStrategy> make_sync_strategy(SyncMethod method,
                                                 SyncConfig config,
                                                 MethodOptions options) {
  switch (method) {
    case SyncMethod::kPsgd:
      return std::make_unique<PsgdSync>(config);
    case SyncMethod::kSignSgdMv:
      return std::make_unique<SignSgdMvSync>(config, options.eta_s);
    case SyncMethod::kEfSignSgd:
      return std::make_unique<EfSignSgdSync>(config);
    case SyncMethod::kSsdm:
      return std::make_unique<SsdmMarSync>(config, options.eta_s);
    case SyncMethod::kSsdmPs:
      return std::make_unique<SsdmPsSync>(config, options.eta_s);
    case SyncMethod::kCascading:
      return std::make_unique<CascadingSync>(config);
    case SyncMethod::kMarsit: {
      MarsitOptions marsit_options;
      marsit_options.eta_s = options.eta_s;
      marsit_options.full_precision_period = options.full_precision_period;
      marsit_options.full_precision_max_norm =
          options.full_precision_max_norm;
      return std::make_unique<MarsitSync>(config, marsit_options);
    }
  }
  MARSIT_CHECK(false) << "unknown sync method";
  return nullptr;
}

}  // namespace marsit
