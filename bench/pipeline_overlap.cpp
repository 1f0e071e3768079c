// Chunked compute/comm overlap bench: prices one Marsit ring round at
// training-scale parameter counts, serial (sum-of-stages) vs pipelined
// (max-of-stages), across pipeline chunk sizes — the DESIGN.md §12 sweep.
//
//   pipeline_overlap [--out BENCH_pipeline.json] [--workers 32]
//                    [--quick] [--min-speedup X]
//
// The round being priced: every worker computes a d-parameter gradient
// (modeled as 6·d·batch flops, batch 64, per-chunk readiness proportional
// to the chunk's position — gradients become available bucket by bucket as
// the backward pass retires layers), packs sign chunks, runs one ring
// all-reduce per chunk on the shared fabric, and folds finished chunks.
// Serial reference: compute, then Σ_c (pack_c + ring_c + fold_c) with each
// sub-collective on an idle fabric.  Overlapped: the three-lane pipeline of
// pipelined_collective_timing, pack gated on per-chunk gradient readiness.
//
// Pure cost-model arithmetic — no gradient data, no wall-clock, so the
// emitted JSON is deterministic and diffable.  `--min-speedup X` exits
// non-zero when any swept parameter count's best speedup lands below X;
// CI's bench-smoke job pins the committed floor with `--quick` (16M only).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "collectives/timing.hpp"
#include "core/schedule.hpp"
#include "core/sync_strategy.hpp"
#include "net/cost_model.hpp"
#include "net/network_sim.hpp"
#include "parallel/shard.hpp"

namespace marsit {
namespace {

/// Modeled minibatch per worker: together with the 6·d·batch flop rule this
/// puts compute within a small factor of the 64M ring's transfer time, the
/// regime where overlap pays (a compute-dominated or wire-dominated round
/// pipelines to its max lane either way).
constexpr double kBatch = 64.0;

struct Options {
  std::string out = "BENCH_pipeline.json";
  std::size_t workers = 32;
  bool quick = false;          // 16M only (CI smoke)
  double min_speedup = 0.0;    // 0 = report only
};

struct SweepRow {
  std::size_t params = 0;
  std::size_t chunk_elements = 0;
  std::size_t num_chunks = 0;
  double compute_seconds = 0.0;
  double serial_seconds = 0.0;
  double overlapped_seconds = 0.0;
  double speedup = 0.0;
};

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
    } else if (arg == "--workers") {
      opt.workers = static_cast<std::size_t>(std::atol(value().c_str()));
    } else if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--min-speedup") {
      opt.min_speedup = std::atof(value().c_str());
    } else {
      std::fprintf(stderr,
                   "usage: pipeline_overlap [--out FILE] [--workers M] "
                   "[--quick] [--min-speedup X]\n");
      std::exit(2);
    }
  }
  if (opt.workers < 2) {
    std::fprintf(stderr, "--workers must be >= 2\n");
    std::exit(2);
  }
  return opt;
}

/// One (parameter count, chunk size) cell of the sweep.
SweepRow price_round(std::size_t d, std::size_t chunk_elements,
                     std::size_t workers, const CostModel& model) {
  SweepRow row;
  row.params = d;
  row.chunk_elements = chunk_elements;
  row.compute_seconds = model.compute_seconds(6.0 * static_cast<double>(d) *
                                              kBatch);

  // Per-chunk gradient readiness: the backward pass retires the chunk grid
  // in order, so chunk c's payload exists once the compute prefix covering
  // it has run.
  const ShardPlan plan(d, chunk_elements);
  row.num_chunks = plan.num_chunks();
  std::vector<double> ready(plan.num_chunks());
  for (std::size_t c = 0; c < plan.num_chunks(); ++c) {
    const Shard shard = plan.chunk(c);
    ready[c] = row.compute_seconds *
               (static_cast<double>(shard.begin + shard.size()) /
                static_cast<double>(d));
  }

  NetworkSim net(workers, model);
  const CollectiveTiming timing = pipelined_collective_timing(
      d, chunk_elements, marsit_wire(model), net,
      [workers](std::size_t /*chunk_index*/, std::size_t elements,
                const WireFormat& wire, NetworkSim& chunk_net,
                double start_time) {
        return price_schedule(reduce_scatter_schedule(MarParadigm::kRing,
                                                      workers, 0, elements),
                              wire, chunk_net, start_time);
      },
      {ready.data(), ready.size()});

  // Serial reference: compute finishes, then the chunks run strictly
  // pack → transfer → fold back to back (the reference excludes readiness
  // gaps, so compute is added once here).  Overlapped: the pipeline's
  // completion already includes the compute gating through `ready`.
  row.serial_seconds = row.compute_seconds + timing.serial_completion_seconds;
  row.overlapped_seconds = timing.completion_seconds;
  row.speedup = row.serial_seconds / row.overlapped_seconds;
  return row;
}

void write_json(const Options& opt, const std::vector<SweepRow>& rows,
                const std::vector<SweepRow>& best, double floor) {
  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", opt.out.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"pipeline_overlap\",\n");
  std::fprintf(f, "  \"workers\": %zu,\n", opt.workers);
  std::fprintf(f, "  \"speedup_floor\": %.2f,\n", floor);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(f,
                 "    {\"params\": %zu, \"chunk_elements\": %zu, "
                 "\"num_chunks\": %zu, \"compute_seconds\": %.9f, "
                 "\"serial_seconds\": %.9f, \"overlapped_seconds\": %.9f, "
                 "\"speedup\": %.4f}%s\n",
                 r.params, r.chunk_elements, r.num_chunks, r.compute_seconds,
                 r.serial_seconds, r.overlapped_seconds, r.speedup,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"best\": [\n");
  for (std::size_t i = 0; i < best.size(); ++i) {
    const SweepRow& r = best[i];
    std::fprintf(f,
                 "    {\"params\": %zu, \"chunk_elements\": %zu, "
                 "\"speedup\": %.4f}%s\n",
                 r.params, r.chunk_elements, r.speedup,
                 i + 1 < best.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace marsit

int main(int argc, char** argv) {
  using namespace marsit;
  const Options opt = parse_options(argc, argv);
  const CostModel model;  // repo-wide default (DESIGN.md §2)

  std::vector<std::size_t> param_counts = {std::size_t{1} << 24};  // 16M
  if (!opt.quick) {
    param_counts.push_back(std::size_t{1} << 26);  // 64M
  }
  // The committed regression floor, written into the JSON so CI can extract
  // it: conservative against the 16M quick sweep's best (≈1.2×); the 64M
  // acceptance figure (≥1.3×) is asserted from the full committed JSON.
  const double kFloor = 1.10;

  std::vector<SweepRow> rows;
  std::vector<SweepRow> best;
  bool below_floor = false;
  for (const std::size_t d : param_counts) {
    SweepRow best_row;
    // Chunk sweep from fine (α-dominated: too many per-chunk latencies) to
    // the whole payload (a single chunk: nothing overlaps, speedup 1.0).
    std::vector<std::size_t> sweep;
    for (const std::size_t chunk :
         {std::size_t{1} << 21, std::size_t{1} << 22, std::size_t{1} << 23,
          std::size_t{1} << 24, std::size_t{1} << 25}) {
      if (chunk < d) {
        sweep.push_back(chunk);
      }
    }
    sweep.push_back(d);  // single-chunk baseline row
    for (const std::size_t chunk : sweep) {
      const SweepRow row = price_round(d, chunk, opt.workers, model);
      std::fprintf(stderr,
                   "d=%zu chunk=%zu (%zu chunks): serial %.4fs  "
                   "overlapped %.4fs  speedup %.3fx\n",
                   row.params, row.chunk_elements, row.num_chunks,
                   row.serial_seconds, row.overlapped_seconds, row.speedup);
      rows.push_back(row);
      if (row.speedup > best_row.speedup) {
        best_row = row;
      }
    }
    best.push_back(best_row);
    if (opt.min_speedup > 0.0 && best_row.speedup < opt.min_speedup) {
      std::fprintf(stderr,
                   "FAIL: best speedup %.4fx at %zu params is below the "
                   "--min-speedup floor %.4fx\n",
                   best_row.speedup, best_row.params, opt.min_speedup);
      below_floor = true;
    }
  }

  write_json(opt, rows, best, kFloor);
  std::fprintf(stderr, "wrote %s\n", opt.out.c_str());
  return below_floor ? 1 : 0;
}
