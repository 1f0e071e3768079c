// Kernel benchmark harness: scalar vs word-parallel vs sharded timings for
// the hot bit-plane kernels (sign packing/unpacking, sign-sum accumulation,
// majority vote, the ⊙ combine), plus reference vs register-blocked timings
// for the GEMM shapes the nn layers run, written as JSON for regression
// tracking.
//
//   micro_kernels [--out BENCH_kernels.json] [--sizes 1048576,16777216,...]
//                 [--reps 5] [--threads N] [--min-gemm-speedup X]
//
// Per kernel and size the harness reports the best-of-reps seconds for
//   * scalar   — the original element-at-a-time loops (*_scalar),
//   * word     — the 64-elements-per-word kernels (compress/kernels.hpp),
//   * sharded  — the word kernels fanned over the thread pool in
//                ShardPlan chunks (the synchronization path's shape),
// plus the speedup ratios scalar/word and scalar/sharded.  The word kernels
// are bit-identical to the scalar references (tests/compress_kernels_test),
// so this file measures pure throughput, not accuracy trade-offs.
//
// The GEMM rows time each ResNet20-mini conv product (forward, dW, dcols
// per stage) and the text classifier's Linear products with the
// matmul*_reference loops and with the blocked kernel (bit-identical,
// tests/tensor_test).  `--min-gemm-speedup X` exits non-zero when the
// aggregate speedup (summed reference seconds over summed blocked seconds)
// lands below X; CI's bench-smoke job pins the committed floor.
//
// The conv_layer rows time whole Conv2d layers, forward and backward at the
// trainer's per-worker batch of 16, on each ResNet20-mini conv geometry, so
// the layout work around the GEMMs (padding, im2col/col2im, transposes, bias
// sums) shows up too.  Each row records how many of the model's 21 convs
// share its geometry; `conv_layer_model_seconds` weights the rows by it.
//
// The dense rows time the large-D round's O(M·D) layers at the
// text_wide_torus width (D = 3,204,290): the Adam step as the scalar member
// loop vs the shipped vectorized one (bit-identical, tests/nn_optimizer_test),
// and a Marsit reduce-scatter one-bit round and flush round on a 2x2 torus
// with a 1-thread pool vs the --threads pool (bit-identical for any pool,
// tests/core_sharded_sync_test).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "compress/kernels.hpp"
#include "compress/sign_codec.hpp"
#include "compress/sign_sum.hpp"
#include "core/one_bit.hpp"
#include "core/sync_strategy.hpp"
#include "nn/conv.hpp"
#include "nn/optimizer.hpp"
#include "parallel/shard.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace marsit {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-reps wall time of fn(), with one untimed warmup call.
template <typename Fn>
double time_best(std::size_t reps, Fn&& fn) {
  fn();  // warmup: page in buffers, settle the pool
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    fn();
    const double t1 = now_seconds();
    best = std::min(best, t1 - t0);
  }
  return best;
}

struct KernelResult {
  std::string kernel;
  std::size_t elements = 0;
  double scalar_seconds = 0.0;
  double word_seconds = 0.0;
  double sharded_seconds = 0.0;
};

struct GemmResult {
  std::string product;
  std::string entry;
  std::size_t m = 0;
  std::size_t k = 0;
  std::size_t n = 0;
  double reference_seconds = 0.0;
  double blocked_seconds = 0.0;
};

struct ConvLayerResult {
  std::string layer;
  std::size_t count = 0;
  ImageDims in;
  std::size_t out_channels = 0;
  std::size_t stride = 0;
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;
};

struct DenseResult {
  std::string row;
  std::size_t elements = 0;
  std::string baseline;
  std::string optimized;
  double baseline_seconds = 0.0;
  double optimized_seconds = 0.0;
};

struct Options {
  std::string out = "BENCH_kernels.json";
  std::vector<std::size_t> sizes = {1u << 20, 1u << 24, 1u << 26};
  std::size_t reps = 5;
  std::size_t threads = 0;         // 0 = hardware concurrency
  double min_gemm_speedup = 0.0;   // 0 = report only
};

/// Floor for the aggregate GEMM speedup, committed to BENCH_kernels.json
/// and enforced by CI's bench-smoke job.  Measured on the generic arm
/// (-DMARSIT_NATIVE=OFF, SSE2 vectors): 1.9-2.1x across runs on a shared
/// 4-core x86-64 host; the floor keeps a margin for noisy CI runners.
constexpr double kGemmSpeedupFloor = 1.4;

std::size_t parse_count(const std::string& text, const char* flag) {
  try {
    std::size_t consumed = 0;
    const std::size_t value = std::stoull(text, &consumed);
    if (consumed != text.size()) {
      throw std::invalid_argument(text);
    }
    return value;
  } catch (const std::exception&) {
    std::fprintf(stderr, "invalid value '%s' for %s\n", text.c_str(), flag);
    std::exit(2);
  }
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--sizes") {
      opt.sizes.clear();
      const std::string list = value();
      std::size_t pos = 0;
      while (pos < list.size()) {
        std::size_t next = list.find(',', pos);
        if (next == std::string::npos) {
          next = list.size();
        }
        opt.sizes.push_back(
            parse_count(list.substr(pos, next - pos), "--sizes"));
        pos = next + 1;
      }
    } else if (arg == "--reps") {
      opt.reps = parse_count(value(), "--reps");
    } else if (arg == "--threads") {
      opt.threads = parse_count(value(), "--threads");
    } else if (arg == "--min-gemm-speedup") {
      opt.min_gemm_speedup = std::atof(value().c_str());
    } else {
      std::fprintf(stderr,
                   "usage: micro_kernels [--out FILE] [--sizes N,N,...] "
                   "[--reps R] [--threads T] [--min-gemm-speedup X]\n");
      std::exit(2);
    }
  }
  return opt;
}

/// The shared chunk geometry used by the sharded timings (matches
/// SyncConfig::shard_chunk_elements' default).
constexpr std::size_t kChunk = 1 << 16;

std::vector<KernelResult> run_size(std::size_t d, std::size_t reps,
                                   ThreadPool& pool) {
  std::vector<KernelResult> results;
  Rng rng(42);
  std::vector<float> g(d);
  fill_normal({g.data(), d}, rng, 0.0f, 1.0f);
  const std::span<const float> gs{g.data(), d};

  BitVector bits = pack_signs(gs);
  std::vector<float> out(d);
  const std::span<float> outs{out.data(), d};
  SignSum sum(d);
  const ShardPlan plan(d, kChunk);
  const auto sharded = [&](auto&& chunk_fn) {
    parallel_for(pool, plan.num_chunks(), [&](std::size_t c) {
      chunk_fn(plan.chunk(c));
    });
  };

  {
    KernelResult r;
    r.kernel = "pack_signs";
    r.elements = d;
    BitVector scratch(d);
    r.scalar_seconds =
        time_best(reps, [&] { scratch = pack_signs_scalar(gs); });
    r.word_seconds = time_best(
        reps, [&] { kernels::pack_signs_words(gs, scratch.words()); });
    r.sharded_seconds = time_best(reps, [&] {
      sharded([&](const Shard& s) {
        kernels::pack_signs_words(
            gs.subspan(s.begin, s.size()),
            scratch.words().subspan(s.word_begin(), s.num_words()));
      });
    });
    results.push_back(r);
  }

  {
    KernelResult r;
    r.kernel = "unpack_signs";
    r.elements = d;
    r.scalar_seconds =
        time_best(reps, [&] { unpack_signs_scalar(bits, 0.5f, outs); });
    r.word_seconds = time_best(
        reps, [&] { kernels::unpack_signs_words(bits.words(), 0.5f, outs); });
    r.sharded_seconds = time_best(reps, [&] {
      sharded([&](const Shard& s) {
        kernels::unpack_signs_words(
            bits.words().subspan(s.word_begin(), s.num_words()), 0.5f,
            outs.subspan(s.begin, s.size()));
      });
    });
    results.push_back(r);
  }

  {
    KernelResult r;
    r.kernel = "accumulate_signs";
    r.elements = d;
    r.scalar_seconds =
        time_best(reps, [&] { accumulate_signs_scalar(bits, 0.5f, outs); });
    r.word_seconds = time_best(reps, [&] {
      kernels::accumulate_signs_words(bits.words(), 0.5f, outs);
    });
    r.sharded_seconds = time_best(reps, [&] {
      sharded([&](const Shard& s) {
        kernels::accumulate_signs_words(
            bits.words().subspan(s.word_begin(), s.num_words()), 0.5f,
            outs.subspan(s.begin, s.size()));
      });
    });
    results.push_back(r);
  }

  {
    KernelResult r;
    r.kernel = "signsum_accumulate";
    r.elements = d;
    r.scalar_seconds = time_best(reps, [&] { sum.accumulate_scalar(bits); });
    r.word_seconds = time_best(reps, [&] { sum.accumulate(bits); });
    r.sharded_seconds = time_best(reps, [&] {
      sharded([&](const Shard& s) {
        kernels::accumulate_counts_words(
            bits.words().subspan(s.word_begin(), s.num_words()),
            sum.values_mut().subspan(s.begin, s.size()));
      });
    });
    results.push_back(r);
  }

  {
    KernelResult r;
    r.kernel = "signsum_majority";
    r.elements = d;
    BitVector scratch(d);
    r.scalar_seconds = time_best(reps, [&] { scratch = sum.majority_scalar(); });
    r.word_seconds = time_best(reps, [&] { scratch = sum.majority(); });
    r.sharded_seconds = time_best(reps, [&] {
      sharded([&](const Shard& s) {
        kernels::majority_words(
            sum.values().subspan(s.begin, s.size()),
            scratch.words().subspan(s.word_begin(), s.num_words()));
      });
    });
    results.push_back(r);
  }

  {
    // ⊙ has no scalar/word split (it is word-parallel by construction);
    // "scalar" is the allocating per-hop form the reduction chains used
    // before the in-place variants, "word" the in-place combine.
    KernelResult r;
    r.kernel = "one_bit_combine";
    r.elements = d;
    Rng combine_rng(7);
    BitVector other = pack_signs(gs);
    r.scalar_seconds = time_best(reps, [&] {
      BitVector fresh = one_bit_combine(bits, 3, other, 1, combine_rng);
      (void)fresh;
    });
    r.word_seconds = time_best(
        reps, [&] { one_bit_combine_into(bits, 3, other, 1, combine_rng); });
    r.sharded_seconds = time_best(reps, [&] {
      sharded([&](const Shard& s) {
        Rng chunk_rng(derive_seed(11, s.index));
        one_bit_combine_words(
            bits.words().subspan(s.word_begin(), s.num_words()), 3,
            other.words().subspan(s.word_begin(), s.num_words()), 1,
            chunk_rng);
      });
    });
    results.push_back(r);
  }

  return results;
}

enum class GemmEntry { kMatmul, kAtB, kABt, kBRows, kARows };

struct GemmCase {
  const char* product;
  GemmEntry entry;
  std::size_t m, k, n;
  /// The layer used to run this product the other way round (dW rather
  /// than dWᵀ): time the reference on the swapped operands, m and n
  /// exchanged, so the row compares the old call with the new one.
  bool swapped_reference = false;
};

/// The products a stride-1 Conv2d runs per sample on ResNet20-mini (one row
/// per stage: 16×16, 8×8, 4×4 planes) and Linear runs per batch in the text
/// model.  The conv forward and dW products span the wide pixel grid
/// ((H − 1)·(W + 2) + W columns) and read the padded input through a row
/// table; the rows here point into one dense operand, which the reference
/// reads directly.  The dW rows accumulate dWᵀ(patch × Cout) += taps · dyᵀ.
constexpr GemmCase kGemmCases[] = {
    {"conv_stem_forward", GemmEntry::kBRows, 8, 27, 286},
    {"conv1_forward", GemmEntry::kBRows, 8, 72, 286},
    {"conv1_dw", GemmEntry::kARows, 72, 286, 8, true},
    {"conv1_dcols", GemmEntry::kAtB, 72, 8, 256},
    {"conv2_forward", GemmEntry::kBRows, 16, 144, 78},
    {"conv2_dw", GemmEntry::kARows, 144, 78, 16, true},
    {"conv2_dcols", GemmEntry::kAtB, 144, 16, 64},
    {"conv3_forward", GemmEntry::kBRows, 32, 288, 22},
    {"conv3_dw", GemmEntry::kARows, 288, 22, 32, true},
    {"conv3_dcols", GemmEntry::kAtB, 288, 32, 16},
    {"linear_forward", GemmEntry::kABt, 32, 64, 2},
    {"linear_dw", GemmEntry::kAtB, 2, 32, 64},
    {"linear_dx", GemmEntry::kMatmul, 32, 2, 64},
};

const char* entry_name(GemmEntry entry) {
  switch (entry) {
    case GemmEntry::kMatmul:
      return "matmul";
    case GemmEntry::kAtB:
      return "matmul_at_b";
    case GemmEntry::kABt:
      return "matmul_a_bt";
    case GemmEntry::kBRows:
      return "matmul_b_rows";
    case GemmEntry::kARows:
      return "matmul_a_rows";
  }
  return "?";
}

std::vector<GemmResult> run_gemm(std::size_t reps) {
  // Each timed call repeats the product until it covers ~2M multiply-adds,
  // so every row times well above the clock's resolution.
  constexpr double kMacsPerTiming = 2e6;
  std::vector<GemmResult> results;
  Rng rng(43);
  for (const GemmCase& gc : kGemmCases) {
    std::vector<float> a(gc.m * gc.k), b(gc.k * gc.n), c(gc.m * gc.n);
    std::vector<float> scratch(gc.k * gc.n);
    fill_normal({a.data(), a.size()}, rng, 0.0f, 1.0f);
    fill_normal({b.data(), b.size()}, rng, 0.0f, 1.0f);
    const std::span<const float> as{a.data(), a.size()};
    const std::span<const float> bs{b.data(), b.size()};
    const std::span<float> cs{c.data(), c.size()};
    const std::span<float> ss{scratch.data(), scratch.size()};
    // Row tables over the dense a (m rows of k) and b (k rows of n).
    std::vector<const float*> a_rows(gc.m), b_rows(gc.k);
    for (std::size_t i = 0; i < gc.m; ++i) {
      a_rows[i] = a.data() + i * gc.k;
    }
    for (std::size_t p = 0; p < gc.k; ++p) {
      b_rows[p] = b.data() + p * gc.n;
    }
    const std::size_t calls = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               kMacsPerTiming / static_cast<double>(gc.m * gc.k * gc.n)));
    const auto repeat = [calls](auto&& fn) {
      return [calls, &fn] {
        for (std::size_t i = 0; i < calls; ++i) {
          fn();
        }
      };
    };
    const auto reference = [&] {
      switch (gc.entry) {
        case GemmEntry::kMatmul:
        case GemmEntry::kBRows:
          matmul_reference(as, bs, cs, gc.m, gc.k, gc.n);
          break;
        case GemmEntry::kAtB:
          matmul_at_b_reference(as, bs, cs, gc.m, gc.k, gc.n);
          break;
        case GemmEntry::kABt:
        case GemmEntry::kARows:
          if (gc.swapped_reference) {
            matmul_a_bt_reference(bs, as, cs, gc.n, gc.k, gc.m);
          } else {
            matmul_a_bt_reference(as, bs, cs, gc.m, gc.k, gc.n);
          }
          break;
      }
    };
    const auto blocked = [&] {
      switch (gc.entry) {
        case GemmEntry::kMatmul:
          matmul(as, bs, cs, gc.m, gc.k, gc.n);
          break;
        case GemmEntry::kAtB:
          matmul_at_b(as, bs, cs, gc.m, gc.k, gc.n);
          break;
        case GemmEntry::kABt:
          matmul_a_bt(as, bs, cs, gc.m, gc.k, gc.n, ss);
          break;
        case GemmEntry::kBRows:
          matmul_b_rows(as, b_rows, cs, gc.m, gc.k, gc.n);
          break;
        case GemmEntry::kARows:
          matmul_a_rows(a_rows, bs, cs, gc.m, gc.k, gc.n);
          break;
      }
    };
    GemmResult r;
    r.product = gc.product;
    r.entry = entry_name(gc.entry);
    r.m = gc.m;
    r.k = gc.k;
    r.n = gc.n;
    const double per_call = 1.0 / static_cast<double>(calls);
    r.reference_seconds = time_best(reps, repeat(reference)) * per_call;
    r.blocked_seconds = time_best(reps, repeat(blocked)) * per_call;
    results.push_back(r);
  }
  return results;
}

/// Every ResNet20-mini conv geometry (3×3, padding 1) and how many of the
/// model's convs have it.
struct ConvLayerCase {
  const char* layer;
  std::size_t count;
  ImageDims in;
  std::size_t out_channels;
  std::size_t stride;
};

constexpr ConvLayerCase kConvLayerCases[] = {
    {"stem", 1, {3, 16, 16}, 8, 1},
    {"stage1_block", 6, {8, 16, 16}, 8, 1},
    {"stage2_down", 1, {8, 16, 16}, 16, 2},
    {"stage2_block", 6, {16, 8, 8}, 16, 1},
    {"stage3_down", 1, {16, 8, 8}, 32, 2},
    {"stage3_block", 6, {32, 4, 4}, 32, 1},
};

/// The image workloads' per-worker batch.
constexpr std::size_t kConvBatch = 16;

std::vector<ConvLayerResult> run_conv_layers(std::size_t reps) {
  // Each timing repeats the call, so every row times well above the
  // clock's resolution.
  constexpr std::size_t kCalls = 20;
  std::vector<ConvLayerResult> results;
  Rng rng(44);
  for (const ConvLayerCase& lc : kConvLayerCases) {
    Conv2d conv(lc.in, lc.out_channels, 3, lc.stride, 1);
    conv.init(rng);
    std::vector<float> x(kConvBatch * conv.in_size()), dx(x.size());
    std::vector<float> y(kConvBatch * conv.out_size()), dy(y.size());
    fill_normal({x.data(), x.size()}, rng, 0.0f, 1.0f);
    fill_normal({dy.data(), dy.size()}, rng, 0.0f, 1.0f);
    const auto forward = [&] {
      for (std::size_t i = 0; i < kCalls; ++i) {
        conv.forward({x.data(), x.size()}, kConvBatch, {y.data(), y.size()});
      }
    };
    // Backward reuses the last forward's cache; the gradients accumulate.
    const auto backward = [&] {
      for (std::size_t i = 0; i < kCalls; ++i) {
        conv.backward({dy.data(), dy.size()}, kConvBatch,
                      {dx.data(), dx.size()});
      }
    };
    ConvLayerResult r;
    r.layer = lc.layer;
    r.count = lc.count;
    r.in = lc.in;
    r.out_channels = lc.out_channels;
    r.stride = lc.stride;
    r.forward_seconds = time_best(reps, forward) / kCalls;
    r.backward_seconds = time_best(reps, backward) / kCalls;
    results.push_back(r);
  }
  return results;
}

/// Forward plus backward seconds of all of ResNet20-mini's convs.
double conv_model_seconds(const std::vector<ConvLayerResult>& layers) {
  double total = 0.0;
  for (const ConvLayerResult& r : layers) {
    total += static_cast<double>(r.count) *
             (r.forward_seconds + r.backward_seconds);
  }
  return total;
}

/// The text_wide_torus parameter count: a 50000 × 64 embedding plus the
/// 64 → 2 classifier.
constexpr std::size_t kDenseElements = 3204290;

/// The Adam step as the scalar member loop it was before vectorization
/// (hyperparameters reloaded through `this`, std::sqrt's errno branch in the
/// loop; this file is compiled without -fno-math-errno).
struct ScalarAdam {
  float beta1_ = 0.9f;
  float beta2_ = 0.999f;
  float epsilon_ = 1e-8f;
  std::vector<float> m_, v_;
  std::size_t step_ = 0;

  void transform(std::span<const float> grad, std::span<float> direction) {
    if (m_.size() != grad.size()) {
      m_.assign(grad.size(), 0.0f);
      v_.assign(grad.size(), 0.0f);
      step_ = 0;
    }
    ++step_;
    const double bc1 =
        1.0 - std::pow(static_cast<double>(beta1_), static_cast<double>(step_));
    const double bc2 =
        1.0 - std::pow(static_cast<double>(beta2_), static_cast<double>(step_));
    for (std::size_t i = 0; i < grad.size(); ++i) {
      m_[i] = beta1_ * m_[i] + (1.0f - beta1_) * grad[i];
      v_[i] = beta2_ * v_[i] + (1.0f - beta2_) * grad[i] * grad[i];
      const double m_hat = static_cast<double>(m_[i]) / bc1;
      const double v_hat = static_cast<double>(v_[i]) / bc2;
      direction[i] = static_cast<float>(
          m_hat / (std::sqrt(v_hat) + static_cast<double>(epsilon_)));
    }
  }
};

/// Best-of-reps seconds of one MarsitSync round (reduce-scatter, 2x2 torus)
/// over `inputs` on `pool`: one-bit rounds, or flush rounds every round.
double time_marsit_round(std::size_t reps, ThreadPool& pool,
                         const WorkerSpans& inputs, bool flush) {
  SyncConfig config;
  config.num_workers = inputs.size();
  config.paradigm = MarParadigm::kTorus2d;
  config.torus_rows = 2;
  config.torus_cols = 2;
  config.pool = &pool;
  MarsitOptions options;
  options.full_precision_period = flush ? 1 : 0;
  MarsitSync strategy(config, options);
  std::vector<float> out(inputs.front().size());
  return time_best(reps, [&] {
    strategy.synchronize(inputs, {out.data(), out.size()});
  });
}

std::vector<DenseResult> run_dense(std::size_t reps, ThreadPool& pool) {
  const std::size_t d = kDenseElements;
  std::vector<DenseResult> results;
  Rng rng(44);
  std::vector<std::vector<float>> grads(4, std::vector<float>(d));
  WorkerSpans spans;
  for (auto& g : grads) {
    fill_normal({g.data(), d}, rng, 0.0f, 1e-3f);
    spans.emplace_back(g.data(), d);
  }
  std::vector<float> direction(d);
  const std::span<float> directions{direction.data(), d};

  {
    DenseResult r;
    r.row = "adam_step";
    r.elements = d;
    r.baseline = "scalar_loop";
    r.optimized = "shipped";
    ScalarAdam scalar;
    AdamOptimizer shipped;
    r.baseline_seconds =
        time_best(reps, [&] { scalar.transform(spans[0], directions); });
    r.optimized_seconds =
        time_best(reps, [&] { shipped.transform(spans[0], directions); });
    results.push_back(r);
  }

  ThreadPool serial(1);
  const std::string pooled = "pool_" + std::to_string(pool.num_threads());
  for (const bool flush : {false, true}) {
    DenseResult r;
    r.row = flush ? "marsit_rs_flush_round" : "marsit_rs_round";
    r.elements = d;
    r.baseline = "pool_1";
    r.optimized = pooled;
    r.baseline_seconds = time_marsit_round(reps, serial, spans, flush);
    r.optimized_seconds = time_marsit_round(reps, pool, spans, flush);
    results.push_back(r);
  }
  return results;
}

/// Summed reference seconds over summed blocked seconds.
double aggregate_speedup(const std::vector<GemmResult>& gemm) {
  double reference = 0.0;
  double blocked = 0.0;
  for (const GemmResult& r : gemm) {
    reference += r.reference_seconds;
    blocked += r.blocked_seconds;
  }
  return reference / blocked;
}

void write_json(const Options& opt, const std::vector<KernelResult>& results,
                const std::vector<GemmResult>& gemm,
                const std::vector<ConvLayerResult>& layers,
                const std::vector<DenseResult>& dense, std::size_t threads) {
  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", opt.out.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_kernels\",\n");
  std::fprintf(f, "  \"pool_threads\": %zu,\n", threads);
  std::fprintf(f, "  \"chunk_elements\": %zu,\n",
               static_cast<std::size_t>(kChunk));
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"elements\": %zu, "
                 "\"scalar_seconds\": %.9f, \"word_seconds\": %.9f, "
                 "\"sharded_seconds\": %.9f, \"word_speedup\": %.3f, "
                 "\"sharded_speedup\": %.3f}%s\n",
                 r.kernel.c_str(), r.elements, r.scalar_seconds,
                 r.word_seconds, r.sharded_seconds,
                 r.scalar_seconds / r.word_seconds,
                 r.scalar_seconds / r.sharded_seconds,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"gemm_arm\": \"%s\",\n", gemm_arm());
  std::fprintf(f, "  \"gemm_speedup_floor\": %.2f,\n", kGemmSpeedupFloor);
  std::fprintf(f, "  \"gemm_aggregate_speedup\": %.3f,\n",
               aggregate_speedup(gemm));
  std::fprintf(f, "  \"gemm\": [\n");
  for (std::size_t i = 0; i < gemm.size(); ++i) {
    const GemmResult& r = gemm[i];
    std::fprintf(f,
                 "    {\"product\": \"%s\", \"entry\": \"%s\", "
                 "\"m\": %zu, \"k\": %zu, \"n\": %zu, "
                 "\"reference_seconds\": %.9f, \"blocked_seconds\": %.9f, "
                 "\"speedup\": %.3f}%s\n",
                 r.product.c_str(), r.entry.c_str(), r.m, r.k, r.n,
                 r.reference_seconds, r.blocked_seconds,
                 r.reference_seconds / r.blocked_seconds,
                 i + 1 < gemm.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"conv_layer_batch\": %zu,\n", kConvBatch);
  std::fprintf(f, "  \"conv_layer_model_seconds\": %.9f,\n",
               conv_model_seconds(layers));
  std::fprintf(f, "  \"conv_layer\": [\n");
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const ConvLayerResult& r = layers[i];
    std::fprintf(f,
                 "    {\"layer\": \"%s\", \"count\": %zu, "
                 "\"in\": \"%zux%zux%zu\", \"out_channels\": %zu, "
                 "\"stride\": %zu, \"forward_seconds\": %.9f, "
                 "\"backward_seconds\": %.9f}%s\n",
                 r.layer.c_str(), r.count, r.in.channels, r.in.height,
                 r.in.width, r.out_channels, r.stride, r.forward_seconds,
                 r.backward_seconds, i + 1 < layers.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"dense\": [\n");
  for (std::size_t i = 0; i < dense.size(); ++i) {
    const DenseResult& r = dense[i];
    std::fprintf(f,
                 "    {\"row\": \"%s\", \"elements\": %zu, "
                 "\"baseline\": \"%s\", \"optimized\": \"%s\", "
                 "\"baseline_seconds\": %.9f, \"optimized_seconds\": %.9f, "
                 "\"speedup\": %.3f}%s\n",
                 r.row.c_str(), r.elements, r.baseline.c_str(),
                 r.optimized.c_str(), r.baseline_seconds, r.optimized_seconds,
                 r.baseline_seconds / r.optimized_seconds,
                 i + 1 < dense.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace marsit

int main(int argc, char** argv) {
  using namespace marsit;
  const Options opt = parse_options(argc, argv);
  ThreadPool pool(opt.threads);
  std::vector<KernelResult> all;
  for (const std::size_t d : opt.sizes) {
    std::fprintf(stderr, "timing %zu elements...\n", d);
    const std::vector<KernelResult> batch = run_size(d, opt.reps, pool);
    for (const KernelResult& r : batch) {
      std::fprintf(stderr, "  %-18s scalar %.4fs  word %.4fs (%.1fx)  "
                   "sharded %.4fs (%.1fx)\n",
                   r.kernel.c_str(), r.scalar_seconds, r.word_seconds,
                   r.scalar_seconds / r.word_seconds, r.sharded_seconds,
                   r.scalar_seconds / r.sharded_seconds);
      all.push_back(r);
    }
  }
  std::fprintf(stderr, "timing GEMM shapes (%s arm)...\n", gemm_arm());
  const std::vector<GemmResult> gemm = run_gemm(opt.reps);
  for (const GemmResult& r : gemm) {
    std::fprintf(stderr, "  %-18s %-12s %3zux%3zux%3zu  reference %.2fus  "
                 "blocked %.2fus (%.1fx)\n",
                 r.product.c_str(), r.entry.c_str(), r.m, r.k, r.n,
                 r.reference_seconds * 1e6, r.blocked_seconds * 1e6,
                 r.reference_seconds / r.blocked_seconds);
  }
  const double speedup = aggregate_speedup(gemm);
  std::fprintf(stderr, "  aggregate GEMM speedup %.2fx (floor %.2fx)\n",
               speedup, kGemmSpeedupFloor);
  std::fprintf(stderr, "timing Conv2d layers at batch %zu...\n", kConvBatch);
  const std::vector<ConvLayerResult> layers = run_conv_layers(opt.reps);
  for (const ConvLayerResult& r : layers) {
    std::fprintf(stderr, "  %-13s x%zu  %2zux%2zux%2zu -> %2zu s%zu  "
                 "forward %.1fus  backward %.1fus\n",
                 r.layer.c_str(), r.count, r.in.channels, r.in.height,
                 r.in.width, r.out_channels, r.stride, r.forward_seconds * 1e6,
                 r.backward_seconds * 1e6);
  }
  std::fprintf(stderr, "  all ResNet20-mini convs: %.2fms\n",
               conv_model_seconds(layers) * 1e3);
  std::fprintf(stderr, "timing the dense round layers at D = %zu...\n",
               kDenseElements);
  const std::vector<DenseResult> dense = run_dense(opt.reps, pool);
  for (const DenseResult& r : dense) {
    std::fprintf(stderr, "  %-22s %s %.2fms  %s %.2fms (%.1fx)\n",
                 r.row.c_str(), r.baseline.c_str(), r.baseline_seconds * 1e3,
                 r.optimized.c_str(), r.optimized_seconds * 1e3,
                 r.baseline_seconds / r.optimized_seconds);
  }
  write_json(opt, all, gemm, layers, dense, pool.num_threads());
  std::fprintf(stderr, "wrote %s\n", opt.out.c_str());
  if (opt.min_gemm_speedup > 0.0 && speedup < opt.min_gemm_speedup) {
    std::fprintf(stderr,
                 "FAIL: aggregate GEMM speedup %.4fx is below the "
                 "--min-gemm-speedup floor %.4fx\n",
                 speedup, opt.min_gemm_speedup);
    return 1;
  }
  return 0;
}
