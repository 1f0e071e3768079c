// The cross-backend determinism contract (DESIGN.md §14) as a conformance
// matrix: {ring, 2×2 / 2×4 torus, parameter server, binomial tree} ×
// {4, 8 ranks}.  For every cell, one
// seed drives three executions — the simulator (DistributedTrainer +
// MarsitSync), the distributed worker over SimTransport, and the
// distributed worker over real loopback sockets — and every rank of every
// backend must finish with bit-identical parameters, witnessed by FNV-1a
// digests.  The α–β predictions and wire accounting must also agree
// bit-for-bit across the two transport backends, and the per-rank payload
// bits must sum to the round's total on every backend.  Each cell's
// per-round prediction and total wire bits are also pinned to exact double
// bits, so a change to a hop schedule cannot move them unnoticed.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/snapshot.hpp"
#include "core/sync_strategy.hpp"
#include "data/synthetic_digits.hpp"
#include "dist/worker.hpp"
#include "net/sim_transport.hpp"
#include "net/socket_transport.hpp"
#include "nn/models.hpp"
#include "sim/trainer.hpp"
#include "tensor/tensor.hpp"
#include "util/logging.hpp"

namespace marsit {
namespace {

constexpr std::size_t kRounds = 6;

dist::WorkerConfig worker_config(MarParadigm paradigm, std::size_t world) {
  dist::WorkerConfig config;
  config.batch_size_per_worker = 8;
  config.optimizer = OptimizerKind::kSgd;
  config.eta_l = 0.05f;
  config.rounds = kRounds;
  config.trainer_seed = 11;
  config.sync_seed = 2022;
  config.paradigm = paradigm;
  if (paradigm == MarParadigm::kTorus2d) {
    config.torus_rows = 2;
    config.torus_cols = world / 2;
  }
  config.options.eta_s = 2e-3f;
  config.options.full_precision_period = 3;
  return config;
}

Sequential make_model(const SyntheticDigits& digits) {
  return make_mlp(digits.sample_size(), {8}, digits.num_classes());
}

/// The oracle: the simulator run every backend must reproduce.
std::uint64_t trainer_digest(const dist::WorkerConfig& config,
                             std::size_t world) {
  SyntheticDigits digits;
  const auto factory = [&digits] { return make_model(digits); };
  SyncConfig sync_config;
  sync_config.num_workers = world;
  sync_config.paradigm = config.paradigm;
  sync_config.torus_rows = config.torus_rows;
  sync_config.torus_cols = config.torus_cols;
  sync_config.seed = config.sync_seed;
  // Several chunks per pack and unpack pass.  The chunk grid draws no rng,
  // so the worker, which runs unchunked, must still match bit for bit.
  sync_config.shard_chunk_elements = 128;
  MarsitSync strategy(sync_config, config.options);

  TrainerConfig trainer_config;
  trainer_config.batch_size_per_worker = config.batch_size_per_worker;
  trainer_config.optimizer = config.optimizer;
  trainer_config.eta_l = config.eta_l;
  trainer_config.rounds = config.rounds;
  trainer_config.eval_interval = config.rounds + 1;  // digests only
  trainer_config.seed = config.trainer_seed;

  DistributedTrainer trainer(digits, factory, strategy, trainer_config);
  (void)trainer.train();
  Tensor params(trainer.param_count());
  trainer.copy_params_into(params.span());
  return ckpt::fnv1a(params.span().data(), params.size() * sizeof(float));
}

/// Runs `world` ranks on threads, one transport each, and returns the
/// per-rank results in rank order.
std::vector<dist::WorkerResult> run_ranks(
    const dist::WorkerConfig& config, std::size_t world,
    const std::function<std::unique_ptr<Transport>(std::size_t)>& make) {
  std::vector<dist::WorkerResult> results(world);
  std::vector<std::thread> ranks;
  for (std::size_t r = 0; r < world; ++r) {
    ranks.emplace_back([&, r] {
      SyntheticDigits digits;
      const auto factory = [&digits] { return make_model(digits); };
      std::unique_ptr<Transport> transport = make(r);
      results[r] = dist::run_marsit_worker(*transport, digits, factory,
                                           config);
    });
  }
  for (std::thread& t : ranks) {
    t.join();
  }
  return results;
}

std::vector<dist::WorkerResult> run_over_sim_fabric(
    const dist::WorkerConfig& config, std::size_t world) {
  SimFabric fabric(world, config.cost_model);
  std::vector<std::unique_ptr<Transport>> endpoints;
  for (std::size_t r = 0; r < world; ++r) {
    endpoints.push_back(fabric.endpoint(r));
  }
  auto results = run_ranks(config, world, [&](std::size_t r) {
    return std::move(endpoints[r]);
  });
  EXPECT_GT(fabric.simulated_seconds(), 0.0);
  EXPECT_GT(fabric.total_bytes(), 0.0);
  return results;
}

std::vector<dist::WorkerResult> run_over_sockets(
    const dist::WorkerConfig& config, std::size_t world) {
  std::vector<int> listeners(world);
  std::vector<std::uint16_t> ports(world);
  for (std::size_t r = 0; r < world; ++r) {
    listeners[r] = bind_loopback_listener(&ports[r]);
  }
  return run_ranks(config, world,
                   [&](std::size_t r) -> std::unique_ptr<Transport> {
    std::vector<int> fds = connect_socket_mesh(r, world, listeners[r],
                                               {ports.data(), ports.size()});
    return std::make_unique<SocketTransport>(r, std::move(fds));
  });
}

void check_reports(const std::vector<dist::WorkerResult>& results,
                   const dist::WorkerConfig& config) {
  for (std::size_t r = 0; r < results.size(); ++r) {
    ASSERT_EQ(results[r].rounds.size(), kRounds) << "rank " << r;
    for (const dist::RoundReport& report : results[r].rounds) {
      // Round t flushes full precision iff t % K == 0.
      EXPECT_EQ(report.full_precision,
                report.round % config.options.full_precision_period == 0);
      EXPECT_GT(report.predicted_comm_seconds, 0.0);
      EXPECT_GE(report.measured_comm_seconds, 0.0);
      EXPECT_GT(report.wire_bits, 0.0);
      EXPECT_GT(report.total_wire_bits, 0.0);
    }
    // A flush round moves 32× the sign bits; the ratio must show up in the
    // payload accounting of every rank's round totals.
    EXPECT_GT(results[r].rounds[0].total_wire_bits,
              8.0 * results[r].rounds[1].total_wire_bits);
  }
  // total_wire_bits is the whole-round, all-ranks figure: identical on
  // every rank and exactly the sum of the per-rank measured payload bits.
  for (std::size_t t = 0; t < kRounds; ++t) {
    double sum = 0.0;
    for (const dist::WorkerResult& result : results) {
      sum += result.rounds[t].wire_bits;
      EXPECT_DOUBLE_EQ(result.rounds[t].total_wire_bits,
                       results[0].rounds[t].total_wire_bits);
    }
    EXPECT_DOUBLE_EQ(sum, results[0].rounds[t].total_wire_bits)
        << "round " << t;
  }
}

/// FNV-1a over the exact bits of every round's (predicted_comm_seconds,
/// total_wire_bits) pair; the per-round values are printed on a mismatch.
void expect_pinned_predictions(const dist::WorkerResult& result,
                               std::uint64_t pinned) {
  std::vector<double> values;
  std::ostringstream rounds;
  for (const dist::RoundReport& report : result.rounds) {
    values.push_back(report.predicted_comm_seconds);
    values.push_back(report.total_wire_bits);
    char line[96];
    std::snprintf(line, sizeof(line), "\n  round %zu: %a s, %a bits",
                  report.round, report.predicted_comm_seconds,
                  report.total_wire_bits);
    rounds << line;
  }
  const std::uint64_t digest =
      ckpt::fnv1a(values.data(), values.size() * sizeof(double));
  EXPECT_EQ(digest, pinned) << "prediction digest 0x" << std::hex << digest
                            << rounds.str();
}

void run_cell(MarParadigm paradigm, std::size_t world,
              std::uint64_t pinned_predictions) {
  SCOPED_TRACE(testing::Message()
               << mar_paradigm_name(paradigm) << " / " << world << " ranks");
  const dist::WorkerConfig config = worker_config(paradigm, world);
  const std::uint64_t oracle = trainer_digest(config, world);

  const std::vector<dist::WorkerResult> sim =
      run_over_sim_fabric(config, world);
  check_reports(sim, config);
  for (std::size_t r = 0; r < world; ++r) {
    EXPECT_EQ(sim[r].param_digest, oracle) << "SimTransport rank " << r;
  }
  expect_pinned_predictions(sim[0], pinned_predictions);

  const std::vector<dist::WorkerResult> sockets =
      run_over_sockets(config, world);
  check_reports(sockets, config);
  for (std::size_t r = 0; r < world; ++r) {
    EXPECT_EQ(sockets[r].param_digest, oracle) << "SocketTransport rank "
                                               << r;
    // The α–β prediction and wire accounting are deterministic and
    // backend-independent: both transports replay the same hop schedule
    // through NetworkSim and send the same payload bytes.
    for (std::size_t t = 0; t < kRounds; ++t) {
      EXPECT_DOUBLE_EQ(sockets[r].rounds[t].predicted_comm_seconds,
                       sim[r].rounds[t].predicted_comm_seconds);
      EXPECT_DOUBLE_EQ(sockets[r].rounds[t].wire_bits,
                       sim[r].rounds[t].wire_bits);
      EXPECT_DOUBLE_EQ(sockets[r].rounds[t].total_wire_bits,
                       sim[r].rounds[t].total_wire_bits);
    }
  }
}

/// Runs the 4- and 8-rank cells; `pinned` holds their prediction digests.
void run_matrix(MarParadigm paradigm, const std::uint64_t (&pinned)[2]) {
  set_log_level(LogLevel::kWarning);
  run_cell(paradigm, 4, pinned[0]);
  run_cell(paradigm, 8, pinned[1]);
}

TEST(DistCrossBackendTest, RingReduceScatter) {
  run_matrix(MarParadigm::kRing,
             {0x466386f74734cfedull, 0x15cb4abc39077bd5ull});
}

TEST(DistCrossBackendTest, TorusReduceScatter) {
  run_matrix(MarParadigm::kTorus2d,
             {0x8da2c9f0795ae275ull, 0xfa1977b0a52e5b61ull});
}

TEST(DistCrossBackendTest, ParameterServerReduceScatter) {
  run_matrix(MarParadigm::kParameterServer,
             {0x73603c29f0b8f7a5ull, 0xa4173b21e43dd375ull});
}

TEST(DistCrossBackendTest, TreeReduceScatter) {
  run_matrix(MarParadigm::kTree,
             {0xaa1f16253d1d9a25ull, 0x8e9bc4836cbca255ull});
}

}  // namespace
}  // namespace marsit
