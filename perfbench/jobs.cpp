#include "jobs.hpp"

#include <latch>
#include <stdexcept>
#include <thread>

#include "ckpt/snapshot.hpp"
#include "data/synthetic_images.hpp"
#include "data/synthetic_sentiment.hpp"
#include "net/socket_transport.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace perfbench {

using marsit::MarParadigm;
using marsit::OptimizerKind;

namespace {

// Streams split off the benchmark's --seed.
constexpr std::uint64_t kDataStream = 1;
constexpr std::uint64_t kTrainerStream = 2;
constexpr std::uint64_t kSyncStream = 3;

}  // namespace

std::vector<std::string> workload_names() {
  return {"image_resnet_ring", "text_wide_torus"};
}

JobSpec job_spec(const std::string& name, bool quick) {
  JobSpec spec;
  spec.name = name;
  if (name == "image_resnet_ring") {
    // The image_classification example's Marsit-K configuration.
    spec.images = true;
    spec.paradigm = MarParadigm::kRing;
    spec.batch = 16;
    spec.optimizer = OptimizerKind::kMomentum;
    spec.eta_l = 0.015f;
    spec.clip = 2.0f;
    spec.flush_period = 25;
    spec.eta_s = 2e-3f;
    spec.flush_max_norm = 0.5f;
    spec.eval_samples = 256;
  } else if (name == "text_wide_torus") {
    // The sentiment_analysis example's Marsit configuration at a
    // DistilBERT-like width: D ≈ 3.2M, almost no GEMM.
    spec.images = false;
    spec.vocab = 50000;
    spec.embed = 64;
    spec.paradigm = MarParadigm::kTorus2d;
    spec.torus_rows = 2;
    spec.torus_cols = 2;
    spec.batch = 32;
    spec.optimizer = OptimizerKind::kAdam;
    spec.eta_l = 0.02f;
    spec.flush_period = 50;
    spec.eta_s = 1e-3f;
    spec.eval_samples = 512;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (quick) {
    spec.flush_period = 2;
    spec.vocab = std::min<std::size_t>(spec.vocab, 2000);
    spec.eval_samples = 64;
  }
  spec.rounds = spec.flush_period + 2;
  return spec;
}

Job::Job(JobSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)),
      trainer_seed_(marsit::derive_seed(seed, kTrainerStream)),
      sync_seed_(marsit::derive_seed(seed, kSyncStream)) {
  const std::uint64_t data_seed = marsit::derive_seed(seed, kDataStream);
  if (spec_.images) {
    marsit::SyntheticImagesConfig config;
    config.seed = data_seed;
    dataset_ = std::make_unique<marsit::SyntheticImages>(config);
  } else {
    marsit::SyntheticSentimentConfig config;
    config.seed = data_seed;
    config.vocab_size = spec_.vocab;
    dataset_ = std::make_unique<marsit::SyntheticSentiment>(config);
  }
  param_count_ = make_model().param_count();
}

marsit::Sequential Job::make_model() const {
  if (spec_.images) {
    const auto& images = static_cast<const marsit::SyntheticImages&>(*dataset_);
    return marsit::make_resnet20_mini(images.image_dims(),
                                      images.num_classes());
  }
  const auto& text = static_cast<const marsit::SyntheticSentiment&>(*dataset_);
  return marsit::make_text_classifier(text.vocab_size(), text.seq_len(),
                                      spec_.embed, text.num_classes());
}

marsit::SyncConfig Job::sync_config() const {
  marsit::SyncConfig config;
  config.num_workers = spec_.workers;
  config.paradigm = spec_.paradigm;
  config.torus_rows = spec_.torus_rows;
  config.torus_cols = spec_.torus_cols;
  config.sync_mode = marsit::SyncMode::kReduceScatter;
  config.seed = sync_seed_;
  return config;
}

marsit::MarsitOptions Job::marsit_options() const {
  marsit::MarsitOptions options;
  options.eta_s = spec_.eta_s;
  options.full_precision_period = spec_.flush_period;
  options.full_precision_max_norm = spec_.flush_max_norm;
  return options;
}

marsit::TrainerConfig Job::trainer_config() const {
  marsit::TrainerConfig config;
  config.batch_size_per_worker = spec_.batch;
  config.optimizer = spec_.optimizer;
  config.eta_l = spec_.eta_l;
  config.clip_grad_norm = spec_.clip;
  config.rounds = spec_.rounds;
  // One evaluation, after the last round (outside the timed rounds).
  config.eval_interval = spec_.rounds;
  config.eval_samples = spec_.eval_samples;
  config.seed = trainer_seed_;
  return config;
}

marsit::dist::WorkerConfig Job::worker_config() const {
  marsit::dist::WorkerConfig config;
  config.batch_size_per_worker = spec_.batch;
  config.optimizer = spec_.optimizer;
  config.eta_l = spec_.eta_l;
  config.clip_grad_norm = spec_.clip;
  config.rounds = spec_.rounds;
  config.trainer_seed = trainer_seed_;
  config.sync_seed = sync_seed_;
  config.paradigm = spec_.paradigm;
  config.torus_rows = spec_.torus_rows;
  config.torus_cols = spec_.torus_cols;
  config.sync_mode = marsit::SyncMode::kReduceScatter;
  config.options = marsit_options();
  return config;
}

std::uint64_t param_digest(std::span<const float> params) {
  return marsit::ckpt::fnv1a(params.data(), params.size() * sizeof(float));
}

namespace {

/// Everything a trainer run constructs before its first round.
struct TrainerStack {
  TrainerStack(const Job& job, const marsit::TrainerConfig& config)
      : strategy(job.sync_config(), job.marsit_options()),
        timed(strategy),
        trainer(job.dataset(), [&job] { return job.make_model(); }, timed,
                config) {}

  marsit::MarsitSync strategy;
  TimedSync timed;
  marsit::DistributedTrainer trainer;
};

}  // namespace

double time_trainer_setup(const Job& job) {
  const double start = now_seconds();
  const auto stack = std::make_unique<TrainerStack>(job, job.trainer_config());
  return now_seconds() - start;
}

TrainerRun run_trainer(const Job& job, std::size_t rounds) {
  marsit::TrainerConfig config = job.trainer_config();
  if (rounds > 0) {
    config.rounds = rounds;
    config.eval_interval = rounds;
  }
  TrainerRun run;
  const double start = now_seconds();
  const auto stack = std::make_unique<TrainerStack>(job, config);
  run.setup_seconds = now_seconds() - start;
  run.result = stack->trainer.train();
  run.calls = stack->timed.calls();
  marsit::Tensor params(stack->trainer.param_count());
  stack->trainer.copy_params_into(params.span());
  run.digest = param_digest(params.span());
  return run;
}

SocketRun run_sockets(const Job& job, bool traced, std::size_t rounds) {
  const std::size_t m = job.spec().workers;
  marsit::dist::WorkerConfig config = job.worker_config();
  config.rounds = rounds;

  SocketRun run;
  run.ranks.resize(m);
  std::vector<std::unique_ptr<marsit::SocketTransport>> transports(m);
  std::vector<std::unique_ptr<TracedTransport>> probes(m);
  std::vector<std::string> errors(m);
  std::latch ready(static_cast<std::ptrdiff_t>(m));
  std::latch go(1);

  const double setup_start = now_seconds();
  std::vector<int> listeners(m);
  std::vector<std::uint16_t> ports(m);
  for (std::size_t r = 0; r < m; ++r) {
    listeners[r] = marsit::bind_loopback_listener(&ports[r]);
  }
  std::vector<std::thread> ranks;
  ranks.reserve(m);
  for (std::size_t r = 0; r < m; ++r) {
    ranks.emplace_back([&, r] {
      try {
        std::vector<int> fds = marsit::connect_socket_mesh(
            r, m, listeners[r], {ports.data(), ports.size()});
        transports[r] =
            std::make_unique<marsit::SocketTransport>(r, std::move(fds));
      } catch (const std::exception& error) {
        errors[r] = error.what();
      }
      ready.count_down();
      go.wait();
      if (!errors[r].empty() || rounds == 0) {
        return;
      }
      try {
        probes[r] = std::make_unique<TracedTransport>(*transports[r], traced);
        run.ranks[r] = marsit::dist::run_marsit_worker(
            *probes[r], job.dataset(), [&job] { return job.make_model(); },
            config);
      } catch (const std::exception& error) {
        errors[r] = error.what();
      }
    });
  }
  // A rank that fails mid-run leaves its peers blocked in recv(); run.py's
  // deadline ends such a run.
  ready.wait();
  run.setup_seconds = now_seconds() - setup_start;
  go.count_down();
  for (std::thread& rank : ranks) {
    rank.join();
  }
  for (std::size_t r = 0; r < m; ++r) {
    if (!errors[r].empty()) {
      throw std::runtime_error("socket rank " + std::to_string(r) + ": " +
                               errors[r]);
    }
    run.transport_payload_bytes += transports[r]->payload_bytes_sent();
    if (rounds > 0) {
      run.round_starts.push_back(probes[r]->round_starts());
      const auto& spans = probes[r]->spans();
      run.spans.insert(run.spans.end(), spans.begin(), spans.end());
    }
  }
  return run;
}

std::vector<std::uint64_t> round_payload_bytes(const SocketRun& run) {
  std::vector<std::uint64_t> bytes(run.ranks.front().rounds.size(), 0);
  for (const auto& rank : run.ranks) {
    for (std::size_t t = 0; t < bytes.size() && t < rank.rounds.size(); ++t) {
      bytes[t] += static_cast<std::uint64_t>(rank.rounds[t].wire_bits / 8.0);
    }
  }
  return bytes;
}

std::vector<bool> round_kinds(const SocketRun& run) {
  std::vector<bool> kinds;
  for (const auto& report : run.ranks.front().rounds) {
    kinds.push_back(report.full_precision);
  }
  return kinds;
}

ReplayRun run_replay(const Job& job, bool traced) {
  // DistributedTrainer::worker_round (local_steps == 1) and the body of
  // train(), worker by worker on one thread, with a span around each call.
  const JobSpec& spec = job.spec();
  const std::size_t m = spec.workers;
  const marsit::TrainerConfig config = job.trainer_config();
  const marsit::Dataset& dataset = job.dataset();
  const marsit::ShardedSampler sampler(
      dataset, m, config.batch_size_per_worker, marsit::kTrainSampleRange,
      marsit::kTestSampleRange,
      marsit::derive_seed(config.seed, marsit::kSamplerSeedSalt));
  marsit::MarsitSync strategy(job.sync_config(), job.marsit_options());

  std::vector<marsit::Sequential> replicas;
  std::vector<std::unique_ptr<marsit::LocalOptimizer>> optimizers;
  for (std::size_t w = 0; w < m; ++w) {
    replicas.push_back(job.make_model());
    marsit::Rng init_rng(
        marsit::derive_seed(config.seed, marsit::kModelInitSeedSalt));
    replicas.back().init(init_rng);
    optimizers.push_back(marsit::make_optimizer(config.optimizer));
  }
  const std::size_t d = job.param_count();
  std::vector<marsit::Tensor> updates(m, marsit::Tensor(d));
  std::vector<marsit::Tensor> grads(m, marsit::Tensor(d));
  std::vector<marsit::Batch> batches(m);
  std::vector<marsit::Tensor> dlogits(m);
  marsit::Tensor global(d);

  ReplayRun run;
  auto span = [&run, traced](const char* name, std::size_t worker,
                             std::size_t round, double start) {
    if (!traced) {
      return start;
    }
    const double end = now_seconds();
    run.spans.push_back({name, worker, round, start, end, 0});
    return end;
  };
  auto clock = [traced] { return traced ? now_seconds() : 0.0; };
  for (std::size_t t = 0; t < config.rounds; ++t) {
    const double round_start = now_seconds();
    for (std::size_t w = 0; w < m; ++w) {
      marsit::Sequential& model = replicas[w];
      marsit::Batch& batch = batches[w];
      double start = clock();
      sampler.worker_batch(w, t, batch);
      start = span("data.batch", w, t, start);

      model.zero_grads();
      const auto logits = model.forward(batch.inputs.span(), batch.size());
      if (dlogits[w].size() != logits.size()) {
        dlogits[w] = marsit::Tensor(logits.size());
      }
      marsit::softmax_cross_entropy(
          logits, {batch.labels.data(), batch.labels.size()},
          dataset.num_classes(), dlogits[w].span());
      start = span("nn.forward", w, t, start);

      model.backward(dlogits[w].span(), batch.size());
      model.copy_grads_into(grads[w].span());
      start = span("nn.backward", w, t, start);

      if (config.clip_grad_norm > 0.0f) {
        const float norm = marsit::l2_norm(grads[w].span());
        if (norm > config.clip_grad_norm) {
          marsit::scale(grads[w].span(), config.clip_grad_norm / norm);
        }
      }
      optimizers[w]->transform(grads[w].span(), updates[w].span());
      marsit::scale(updates[w].span(), config.eta_l);
      span("nn.optimizer", w, t, start);
    }
    marsit::WorkerSpans inputs;
    for (std::size_t w = 0; w < m; ++w) {
      inputs.push_back(updates[w].span());
    }
    double start = clock();
    const marsit::SyncStepResult step =
        strategy.synchronize(inputs, global.span());
    run.full_precision.push_back(step.full_precision);
    start = span("core.sync", 0, t, start);
    for (marsit::Sequential& replica : replicas) {
      replica.apply_update(global.span());
    }
    span("nn.apply", 0, t, start);
    run.round_seconds.push_back(now_seconds() - round_start);
    if (traced) {
      run.spans.push_back(
          {"round", 0, t, round_start, round_start + run.round_seconds[t], 0});
    }
  }
  marsit::Tensor params(d);
  replicas.front().copy_params_into(params.span());
  run.digest = param_digest(params.span());
  return run;
}

}  // namespace perfbench
