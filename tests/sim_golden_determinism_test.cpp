// Golden determinism regression: a fixed-seed, quickstart-shaped training
// run per strategy, hashed (final parameters + TrainResult accounting) and
// asserted against a committed golden file — and asserted identical across
// thread-pool sizes 1, 4, and hardware.  One extra case trains ResNet20-mini
// on SyntheticImages so the Conv2d path (im2col, col2im and all three GEMM
// entry points) is pinned bit-for-bit too; another trains the Adam text
// classifier on a 2x2 torus in reduce-scatter mode, with a chunk grid fine
// enough that every pool size above 1 fans the sync passes out.
//
// The pool-size invariance check is unconditional: it guards the sharded
// pipelines' (seed, round, chunk) rng discipline.  The golden-file check
// pins the exact numeric trajectory so an accidental change to rng
// consumption order, fold order, or accounting shows up as a diff — not as
// a silent drift.  To regenerate after an *intentional* change:
//
//   MARSIT_REGEN_GOLDEN=1 ./build/tests/sim_golden_determinism_test
//
// then commit tests/golden/train_golden.txt with the behavior change.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "data/synthetic_digits.hpp"
#include "data/synthetic_images.hpp"
#include "data/synthetic_sentiment.hpp"
#include "nn/models.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/trainer.hpp"
#include "util/logging.hpp"

namespace marsit {
namespace {

/// FNV-1a over raw bit patterns: float/size_t values hash by representation,
/// so two runs hash equal iff they are bit-identical.
class Fnv1a {
 public:
  void add_bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(float v) { add_bytes(&v, sizeof(v)); }
  void add(double v) { add_bytes(&v, sizeof(v)); }
  void add(std::uint64_t v) { add_bytes(&v, sizeof(v)); }
  std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

enum class GoldenModel { kMlp, kResnet, kTextTorusRs };

struct GoldenCase {
  const char* key;
  SyncMethod method;
  GoldenModel model = GoldenModel::kMlp;
};

constexpr GoldenCase kCases[] = {
    {"psgd-rar", SyncMethod::kPsgd},
    {"signsgd-rar", SyncMethod::kSignSgdMv},
    {"ef-signsgd-rar", SyncMethod::kEfSignSgd},
    {"ssdm-rar", SyncMethod::kSsdm},
    {"cascading-rar", SyncMethod::kCascading},
    {"marsit-rar", SyncMethod::kMarsit},
    {"marsit-resnet-ring", SyncMethod::kMarsit, GoldenModel::kResnet},
    {"marsit-text-torus-rs", SyncMethod::kMarsit, GoldenModel::kTextTorusRs},
};

/// FNV digest of the final parameters and the TrainResult accounting.
std::uint64_t digest_of(const DistributedTrainer& trainer,
                        const TrainResult& result) {
  std::vector<float> params(trainer.param_count());
  trainer.copy_params_into({params.data(), params.size()});

  Fnv1a hash;
  for (const float p : params) {
    hash.add(p);
  }
  hash.add(static_cast<std::uint64_t>(result.rounds_completed));
  hash.add(result.sim_seconds);
  hash.add(result.total_wire_bits);
  hash.add(result.mean_bits_per_element);
  hash.add(result.mean_matching_rate);
  hash.add(result.mean_active_workers);
  hash.add(result.final_test_accuracy);
  hash.add(result.best_test_accuracy);
  hash.add(result.mean_round_phases.compute);
  hash.add(result.mean_round_phases.compression);
  hash.add(result.mean_round_phases.communication);
  hash.add(static_cast<std::uint64_t>(result.diverged ? 1 : 0));
  return hash.digest();
}

/// One quickstart-shaped run (4 workers on a ring, small MLP on the digit
/// dataset) with the given pool.
std::uint64_t run_mlp_digest(SyncMethod method, ThreadPool* pool) {
  SyntheticDigits digits;
  SyncConfig sync_config;
  sync_config.num_workers = 4;
  sync_config.paradigm = MarParadigm::kRing;
  sync_config.seed = 2024;
  sync_config.pool = pool;

  MethodOptions options;
  options.eta_s = 2e-3f;
  if (method == SyncMethod::kMarsit) {
    options.full_precision_period = 5;
  }
  auto strategy = make_sync_strategy(method, sync_config, options);

  TrainerConfig config;
  config.batch_size_per_worker = 16;
  config.eta_l = 0.05f;
  config.rounds = 12;
  config.eval_interval = 6;
  config.eval_samples = 128;
  config.seed = 99;
  config.track_matching_rate = true;
  auto factory = [&digits] {
    return make_mlp(digits.sample_size(), {24}, digits.num_classes());
  };
  DistributedTrainer trainer(digits, factory, *strategy, config);
  const TrainResult result = trainer.train();
  return digest_of(trainer, result);
}

/// The image_classification example's Marsit configuration, shortened: 4
/// workers on a ring train ResNet20-mini on SyntheticImages with momentum
/// SGD for 6 rounds; rounds 0 and 5 are full-precision flushes.
std::uint64_t run_resnet_digest(ThreadPool* pool) {
  SyntheticImages images;
  SyncConfig sync_config;
  sync_config.num_workers = 4;
  sync_config.paradigm = MarParadigm::kRing;
  sync_config.seed = 2024;
  sync_config.pool = pool;

  MethodOptions options;
  options.eta_s = 2e-3f;
  options.full_precision_period = 5;
  options.full_precision_max_norm = 0.5f;
  auto strategy = make_sync_strategy(SyncMethod::kMarsit, sync_config, options);

  TrainerConfig config;
  config.batch_size_per_worker = 8;
  config.optimizer = OptimizerKind::kMomentum;
  config.eta_l = 0.015f;
  config.clip_grad_norm = 2.0f;
  config.rounds = 6;
  config.eval_interval = 6;
  config.eval_samples = 64;
  config.seed = 99;
  config.track_matching_rate = true;
  auto factory = [&images] {
    return make_resnet20_mini(images.image_dims(), images.num_classes());
  };
  DistributedTrainer trainer(images, factory, *strategy, config);
  const TrainResult result = trainer.train();
  return digest_of(trainer, result);
}

/// The sentiment_analysis example's Marsit configuration, shrunk: 4 Adam
/// workers on a 2x2 torus train the text classifier (vocab 1000 x 16, about
/// 16K parameters) in reduce-scatter mode for 6 rounds; rounds 0 and 5 are
/// max-norm-clipped full-precision flushes.  The 1024-element chunk grid
/// gives 16 chunks, so pools of 4 and more run the sync passes in parallel.
std::uint64_t run_text_torus_rs_digest(ThreadPool* pool) {
  SyntheticSentimentConfig data_config;
  data_config.vocab_size = 1000;
  SyntheticSentiment sentiment(data_config);
  SyncConfig sync_config;
  sync_config.num_workers = 4;
  sync_config.paradigm = MarParadigm::kTorus2d;
  sync_config.torus_rows = 2;
  sync_config.torus_cols = 2;
  sync_config.sync_mode = SyncMode::kReduceScatter;
  sync_config.seed = 2024;
  sync_config.pool = pool;
  sync_config.shard_chunk_elements = 1024;

  MethodOptions options;
  options.eta_s = 1e-3f;
  options.full_precision_period = 5;
  options.full_precision_max_norm = 0.5f;
  auto strategy = make_sync_strategy(SyncMethod::kMarsit, sync_config, options);

  TrainerConfig config;
  config.batch_size_per_worker = 16;
  config.optimizer = OptimizerKind::kAdam;
  config.eta_l = 0.02f;
  config.rounds = 6;
  config.eval_interval = 6;
  config.eval_samples = 128;
  config.seed = 99;
  config.track_matching_rate = true;
  auto factory = [&sentiment] {
    return make_text_classifier(sentiment.vocab_size(), sentiment.seq_len(),
                                16, sentiment.num_classes());
  };
  DistributedTrainer trainer(sentiment, factory, *strategy, config);
  const TrainResult result = trainer.train();
  return digest_of(trainer, result);
}

std::uint64_t run_digest(const GoldenCase& c, ThreadPool* pool) {
  switch (c.model) {
    case GoldenModel::kResnet:
      return run_resnet_digest(pool);
    case GoldenModel::kTextTorusRs:
      return run_text_torus_rs_digest(pool);
    case GoldenModel::kMlp:
      break;
  }
  return run_mlp_digest(c.method, pool);
}

std::string golden_path() {
  return std::string(MARSIT_GOLDEN_DIR) + "/train_golden.txt";
}

struct GoldenFile {
  /// Toolchain + flags that produced the digests.  Float trajectories are
  /// deterministic per build configuration, not across configurations
  /// (-ffp-contract, -march, libm all shift the last ulps), so digests only
  /// compare when the fingerprints match.
  std::string fingerprint;
  std::map<std::string, std::uint64_t> digests;
};

GoldenFile load_golden() {
  GoldenFile golden;
  std::ifstream in(golden_path());
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "fingerprint") {
      fields >> std::ws;
      std::getline(fields, golden.fingerprint);
      continue;
    }
    std::string hex;
    if (fields >> hex) {
      golden.digests[key] = std::strtoull(hex.c_str(), nullptr, 16);
    }
  }
  return golden;
}

std::string to_hex(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex << v;
  return out.str();
}

TEST(GoldenDeterminismTest, PoolSizeInvariantAndMatchesGolden) {
  set_log_level(LogLevel::kError);
  ThreadPool pool1(1), pool4(4), pool_hw(0);

  std::map<std::string, std::uint64_t> digests;
  for (const GoldenCase& c : kCases) {
    const std::uint64_t d1 = run_digest(c, &pool1);
    const std::uint64_t d4 = run_digest(c, &pool4);
    const std::uint64_t dh = run_digest(c, &pool_hw);
    EXPECT_EQ(d1, d4) << c.key << ": pool sizes 1 vs 4 diverge";
    EXPECT_EQ(d1, dh) << c.key << ": pool sizes 1 vs hardware diverge";
    digests[c.key] = d1;
  }

  if (std::getenv("MARSIT_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path());
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << "fingerprint " << MARSIT_GOLDEN_FINGERPRINT << "\n";
    for (const auto& [key, digest] : digests) {
      out << key << " " << to_hex(digest) << "\n";
    }
    GTEST_SKIP() << "golden file regenerated at " << golden_path();
  }

  const GoldenFile golden = load_golden();
  ASSERT_FALSE(golden.digests.empty())
      << "missing/empty " << golden_path()
      << " — run with MARSIT_REGEN_GOLDEN=1 to create it";
  if (golden.fingerprint != MARSIT_GOLDEN_FINGERPRINT) {
    GTEST_SKIP() << "golden digests were produced by a different build "
                    "configuration (\""
                 << golden.fingerprint << "\" vs \""
                 << MARSIT_GOLDEN_FINGERPRINT
                 << "\"); pool-size invariance was still asserted above.";
  }
  for (const auto& [key, digest] : digests) {
    const auto it = golden.digests.find(key);
    ASSERT_NE(it, golden.digests.end()) << "no golden entry for " << key;
    EXPECT_EQ(digest, it->second)
        << key << ": numeric trajectory changed (got " << to_hex(digest)
        << ", golden " << to_hex(it->second)
        << ").  If intentional, regenerate with MARSIT_REGEN_GOLDEN=1.";
  }
}

}  // namespace
}  // namespace marsit
