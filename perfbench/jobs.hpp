// The benchmark's workloads and the three ways it runs one.
//
// A Job is one workload at one seed: the dataset, the model and the Marsit
// configuration, with every seed derived from the benchmark's --seed.  It
// runs through
//
//   run_trainer   DistributedTrainer::train() with a TimedSync around the
//                 real MarsitSync (the in-process trainer);
//   run_sockets   dist::run_marsit_worker on M threads, one loopback
//                 SocketTransport each (the real wire), each behind a
//                 TracedTransport;
//   run_replay    the trainer's worker step replayed serially from public
//                 functions; traced, one span per layer call, so the
//                 compute phase can be split into data / forward /
//                 backward / optimizer.
//
// All three produce the same final parameters for the same Job; the digests
// they return are how the benchmark checks that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <memory>
#include <string>
#include <vector>

#include "core/sync_strategy.hpp"
#include "data/dataset.hpp"
#include "dist/worker.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "probes.hpp"
#include "sim/trainer.hpp"

namespace perfbench {

struct JobSpec {
  std::string name;
  /// ResNet20-mini on SyntheticImages, or else make_text_classifier with
  /// `vocab` × `embed` on SyntheticSentiment.
  bool images = true;
  std::size_t vocab = 0;
  std::size_t embed = 0;
  std::size_t workers = 4;
  marsit::MarParadigm paradigm = marsit::MarParadigm::kRing;
  std::size_t torus_rows = 0;
  std::size_t torus_cols = 0;
  std::size_t batch = 16;
  marsit::OptimizerKind optimizer = marsit::OptimizerKind::kSgd;
  float eta_l = 0.05f;
  float clip = 0.0f;
  /// Marsit's K: round t is a full-precision flush iff t % K == 0.
  std::size_t flush_period = 0;
  float eta_s = 1e-3f;
  float flush_max_norm = 0.0f;
  /// Rounds per run: K + 2, so a run has the cold round-0 flush, one warm
  /// flush at round K, and one-bit rounds around it.
  std::size_t rounds = 0;
  /// Held-out samples behind test_loss (outside every timed region).
  std::size_t eval_samples = 0;
};

/// The workload called `name`; `quick` shrinks it (fewer rounds, smaller
/// vocabulary) for the self-test.  Throws std::invalid_argument for an
/// unknown name.
JobSpec job_spec(const std::string& name, bool quick);

/// The names job_spec() accepts.
std::vector<std::string> workload_names();

class Job {
 public:
  Job(JobSpec spec, std::uint64_t seed);

  const JobSpec& spec() const { return spec_; }
  const marsit::Dataset& dataset() const { return *dataset_; }
  marsit::Sequential make_model() const;
  std::size_t param_count() const { return param_count_; }

  /// Both pin SyncMode::kReduceScatter: the workloads must not depend on
  /// the legacy all-gather plane's default.
  marsit::SyncConfig sync_config() const;
  marsit::MarsitOptions marsit_options() const;
  marsit::TrainerConfig trainer_config() const;
  marsit::dist::WorkerConfig worker_config() const;

 private:
  JobSpec spec_;
  std::uint64_t trainer_seed_;
  std::uint64_t sync_seed_;
  std::unique_ptr<marsit::Dataset> dataset_;
  std::size_t param_count_ = 0;
};

/// FNV-1a over a parameter vector — the digest the dist worker reports.
std::uint64_t param_digest(std::span<const float> params);

struct TrainerRun {
  double setup_seconds = 0.0;
  /// One entry per round, in order.
  std::vector<TimedSync::Call> calls;
  marsit::TrainResult result;
  std::uint64_t digest = 0;
};

/// Seconds to construct the strategy and trainer for `job` (then torn
/// down) — the trainer workloads' setup_s sample.
double time_trainer_setup(const Job& job);

/// Trains `rounds` rounds (the spec's rounds if 0) and evaluates once,
/// after the last round.
TrainerRun run_trainer(const Job& job, std::size_t rounds = 0);

struct SocketRun {
  /// Listener bind, mesh connect and transport construction on all ranks.
  double setup_seconds = 0.0;
  std::vector<marsit::dist::WorkerResult> ranks;
  /// round_starts[r][t]: rank r's first transport call of round t.
  std::vector<std::vector<double>> round_starts;
  /// Sum over ranks of SocketTransport::payload_bytes_sent().
  std::uint64_t transport_payload_bytes = 0;
  /// Per-call transport spans of every rank; empty unless traced.
  std::vector<Span> spans;
};

/// Runs the job on `spec.workers` rank threads over loopback sockets.
/// With `rounds` == 0 the ranks only set up and tear down.
SocketRun run_sockets(const Job& job, bool traced, std::size_t rounds);

/// Round t's payload bytes summed over ranks, from the workers' reports.
std::vector<std::uint64_t> round_payload_bytes(const SocketRun& run);
/// Round t's kind (true = flush), from rank 0's reports.
std::vector<bool> round_kinds(const SocketRun& run);

struct ReplayRun {
  std::uint64_t digest = 0;
  /// Traced only: one span per layer call per worker per round
  /// ("data.batch", "nn.forward", "nn.backward", "nn.optimizer"), one per
  /// round for "core.sync", "nn.apply" and the whole "round".
  std::vector<Span> spans;
  std::vector<double> round_seconds;  // per round, traced or not
  std::vector<bool> full_precision;   // per round
};

/// Without `traced` the replay reads the clock only at round boundaries —
/// the untraced twin the tracing overhead is measured against.
ReplayRun run_replay(const Job& job, bool traced);

}  // namespace perfbench
