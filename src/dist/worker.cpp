#include "dist/worker.hpp"

#include <chrono>
#include <cstring>
#include <span>

#include "ckpt/snapshot.hpp"
#include "compress/bit_vector.hpp"
#include "compress/kernels.hpp"
#include "core/schedule.hpp"
#include "net/network_sim.hpp"
#include "sim/trainer.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace marsit::dist {

namespace {

// marsit-lint: allow(determinism): measured wall-clock next to the α–β
// prediction is this backend's deliverable (ISSUE: real-socket timing)
using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

template <typename T>
std::span<std::uint8_t> bytes_of(std::span<T> values) {
  return {reinterpret_cast<std::uint8_t*>(values.data()), values.size_bytes()};
}

/// The Transport interpreter: runs this rank's steps of `schedule` over
/// `plane`, its local copy of the plane (schedule.units units of
/// schedule.unit_bytes bytes).  Per hop the rank posts its sends, in list
/// order, then takes its receives: a copy lands in place, a fold ⊙s the
/// arriving words into the rank's own.  Sends never wait, so no hop waits
/// on a later one.  Empty ranges send no frame and draw no rng.
void execute(const Schedule& schedule, Transport& transport,
             std::uint32_t tag, std::span<std::uint8_t> plane,
             std::uint64_t round_seed, double& sent_bytes) {
  const std::size_t rank = transport.rank();
  const auto range_bytes = [&](Segment range) {
    return plane.subspan(range.begin * schedule.unit_bytes,
                         range.count * schedule.unit_bytes);
  };
  std::vector<std::uint64_t> incoming;
  for_each_hop(schedule, [&](std::span<const ScheduleStep> hop) {
    for (const ScheduleStep& step : hop) {
      if (step.src == rank && step.range.count > 0) {
        const auto payload = range_bytes(step.range);
        sent_bytes += static_cast<double>(payload.size());
        transport.send(step.dst, tag + step.stream, payload);
      }
    }
    for (const ScheduleStep& step : hop) {
      if (step.dst != rank || step.range.count == 0) {
        continue;
      }
      const std::vector<std::uint8_t> blob =
          transport.recv(step.src, tag + step.stream);
      const auto into = range_bytes(step.range);
      MARSIT_CHECK(blob.size() == into.size())
          << "payload " << blob.size() << " bytes, expected " << into.size();
      if (!step.fold) {
        std::memcpy(into.data(), blob.data(), blob.size());
        continue;
      }
      incoming.resize(step.range.count);
      std::memcpy(incoming.data(), blob.data(), blob.size());
      apply_fold(*step.fold, round_seed, incoming,
                 {reinterpret_cast<std::uint64_t*>(into.data()),
                  step.range.count});
    }
  });
}

/// Prices a plane as its bytes: every unit of every step, fold or copy,
/// carries 8·unit_bytes bits, and no codec work is charged.
CollectiveTiming price_plane(const Schedule& schedule,
                             const CostModel& cost_model) {
  const double unit_bits = 8.0 * static_cast<double>(schedule.unit_bytes);
  WireFormat wire;
  wire.reduce_bits = [unit_bits](std::size_t units, std::size_t) {
    return unit_bits * static_cast<double>(units);
  };
  wire.gather_bits = [unit_bits](std::size_t units) {
    return unit_bits * static_cast<double>(units);
  };
  NetworkSim net(schedule.members, cost_model);
  return price_schedule(schedule, wire, net);
}

}  // namespace

WorkerResult run_marsit_worker(Transport& transport, const Dataset& dataset,
                               const std::function<Sequential()>& model_factory,
                               const WorkerConfig& config) {
  const std::size_t m = transport.world_size();
  const std::size_t rank = transport.rank();
  MARSIT_CHECK(m >= 2) << "distributed run needs at least 2 workers";
  if (config.paradigm == MarParadigm::kTorus2d) {
    MARSIT_CHECK(config.torus_rows >= 2 && config.torus_cols >= 2 &&
                 config.torus_rows * config.torus_cols == m)
        << "torus " << config.torus_rows << "x" << config.torus_cols
        << " does not tile " << m << " workers";
  }
  MARSIT_CHECK(model_factory != nullptr) << "null model factory";

  // Exactly the simulator's streams: same sampler seed salt, same model
  // init salt, so rank r's gradients equal simulated worker r's.
  const ShardedSampler sampler(
      dataset, m, config.batch_size_per_worker, kTrainSampleRange,
      kTestSampleRange, derive_seed(config.trainer_seed, kSamplerSeedSalt));
  Sequential model = model_factory();
  Rng init_rng(derive_seed(config.trainer_seed, kModelInitSeedSalt));
  model.init(init_rng);
  const std::size_t d = model.param_count();
  MARSIT_CHECK(d > 0) << "model has no parameters";
  MARSIT_CHECK(model.in_size() == dataset.sample_size() &&
               model.out_size() == dataset.num_classes())
      << "model shape does not match the dataset";

  auto optimizer = make_optimizer(config.optimizer);
  LocalStepScratch scratch;
  Tensor update(d);
  Tensor adjusted(d);
  Tensor compensation(d);
  Tensor global(d);
  const std::size_t k = config.options.full_precision_period;
  // Every round replays one of two fixed, fault-free schedules, so each
  // plane's α–β prediction is computed once.
  const Schedule flush_plane = all_gather_schedule(
      config.paradigm, m, config.torus_cols, d * sizeof(float));
  const Schedule rs_plane = reduce_scatter_schedule(
      config.paradigm, m, config.torus_cols, kernels::words_for(d));
  const CollectiveTiming flush_prediction =
      price_plane(flush_plane, config.cost_model);
  const CollectiveTiming rs_prediction =
      price_plane(rs_plane, config.cost_model);
  Tensor flush_slots;
  if (k > 0) {
    flush_slots = Tensor(m * d);
  }
  BitVector own(d);

  WorkerResult result;
  result.rounds.reserve(config.rounds);
  for (std::size_t t = 0; t < config.rounds; ++t) {
    local_step(model, *optimizer, sampler, dataset.num_classes(), rank, t,
               config.eta_l, config.clip_grad_norm, scratch, update.span());

    // --- synchronize (MarsitSync::do_synchronize, full membership) --------
    const bool full_precision = k > 0 && t % k == 0;
    RoundReport report;
    report.round = t;
    report.full_precision = full_precision;
    // Four tag streams per round, one per schedule stream.
    const std::uint32_t tag = static_cast<std::uint32_t>(t << 2);
    double sent_bytes = 0.0;
    const WallClock::time_point comm_start = WallClock::now();

    if (full_precision) {
      // Every rank gathers all M adjusted updates u + c into its slots and
      // takes the exact mean in one fixed order.
      const auto slot = [&](std::size_t g) {
        return flush_slots.span().subspan(g * d, d);
      };
      add(update.span(), compensation.span(), slot(rank));
      execute(flush_plane, transport, tag, bytes_of(flush_slots.span()), 0,
              sent_bytes);
      WorkerSpans spans;
      for (std::size_t g = 0; g < m; ++g) {
        spans.push_back(slot(g));
      }
      aggregate_mean(spans, global.span());
      if (config.options.full_precision_max_norm > 0.0f) {
        const float norm = l2_norm(global.span());
        if (norm > config.options.full_precision_max_norm) {
          scale(global.span(), config.options.full_precision_max_norm / norm);
        }
      }
      compensation.zero();
    } else {
      add(update.span(), compensation.span(), adjusted.span());
      kernels::pack_signs_words(adjusted.span(), own.words());
      execute(rs_plane, transport, tag, bytes_of(own.words()),
              derive_seed(config.sync_seed, t), sent_bytes);
      kernels::unpack_signs_words(own.words(), config.options.eta_s,
                                  global.span());
      if (config.options.use_compensation) {
        sub(adjusted.span(), global.span(), compensation.span());
      }
    }
    report.measured_comm_seconds = seconds_since(comm_start);
    report.wire_bits = sent_bytes * 8.0;
    const CollectiveTiming& prediction =
        full_precision ? flush_prediction : rs_prediction;
    report.predicted_comm_seconds = prediction.completion_seconds;
    report.total_wire_bits = prediction.total_wire_bits;

    model.apply_update(global.span());
    result.rounds.push_back(report);
  }

  Tensor params(d);
  model.copy_params_into(params.span());
  result.param_digest =
      ckpt::fnv1a(params.span().data(), d * sizeof(float));
  return result;
}

}  // namespace marsit::dist
