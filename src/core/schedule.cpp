#include "core/schedule.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <string>

#include "core/one_bit.hpp"
#include "core/sync_strategy.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/validate.hpp"

namespace marsit {

namespace {

/// Appends steps to a schedule, numbering hops as it goes.
class ScheduleBuilder {
 public:
  ScheduleBuilder(std::size_t members, std::size_t units,
                  std::size_t unit_bytes) {
    schedule_.members = members;
    schedule_.units = units;
    schedule_.unit_bytes = unit_bytes;
  }

  Schedule& schedule() { return schedule_; }

  void step(std::uint32_t stream, std::size_t src, std::size_t dst,
            Segment range, std::optional<FoldOp> fold = std::nullopt) {
    schedule_.steps.push_back({stream, hop_, src, dst, range, fold});
  }

  void end_hop() { ++hop_; }

  /// One ring pass over `ring` (members in ring order) covering `whole`,
  /// split into L = ring.size() parts: at hop t position i sends part
  /// (i + offset − t) mod L to position i+1.  With `chain` set the receiver
  /// folds part p as op t of chain chain->seed_id + p, at arriving weight
  /// (t+1)·chain->partial_weight and local weight chain->local_weight, and
  /// position i ends up owning part (i+1) mod L; without it the receiver
  /// copies.
  void ring_pass(const std::vector<std::size_t>& ring, Segment whole,
                 std::uint32_t stream, std::size_t offset,
                 const FoldOp* chain = nullptr) {
    const std::size_t L = ring.size();
    const auto part = [&](std::size_t p) {
      Segment range = segment_of(whole.count, L, p);
      range.begin += whole.begin;
      return range;
    };
    for (std::size_t t = 0; t + 1 < L; ++t) {
      for (std::size_t i = 0; i < L; ++i) {
        const std::size_t p = (i + offset + 2 * L - t) % L;
        std::optional<FoldOp> fold;
        if (chain != nullptr) {
          fold = FoldOp{chain->seed_id + p, t,
                        (t + 1) * chain->partial_weight, chain->local_weight,
                        true};
        }
        step(stream, ring[i], ring[(i + 1) % L], part(p), fold);
      }
      end_hop();
    }
    if (chain != nullptr) {
      for (std::size_t i = 0; i < L; ++i) {
        schedule_.finals.push_back({ring[i], part((i + 1) % L)});
      }
    }
  }

 private:
  Schedule schedule_;
  std::uint32_t hop_ = 0;
};

std::vector<std::size_t> ring_of(std::size_t first, std::size_t count,
                                 std::size_t stride) {
  std::vector<std::size_t> ring(count);
  for (std::size_t i = 0; i < count; ++i) {
    ring[i] = first + i * stride;
  }
  return ring;
}

}  // namespace

Segment segment_of(std::size_t units, std::size_t parts, std::size_t index) {
  MARSIT_CHECK(parts > 0) << "segment_of over zero parts";
  MARSIT_CHECK(index < parts) << "segment " << index << " of " << parts;
  const std::size_t base = units / parts;
  const std::size_t rem = units % parts;
  return {index * base + std::min(index, rem), base + (index < rem ? 1 : 0)};
}

std::size_t reformed_torus_rows(std::size_t count, std::size_t cols) {
  return cols > 0 && count % cols == 0 && count / cols >= 2 ? count / cols
                                                            : 0;
}

Schedule reduce_scatter_schedule(MarParadigm paradigm, std::size_t members,
                                 std::size_t torus_cols, std::size_t units) {
  MARSIT_CHECK(members > 0) << "schedule over zero members";
  ScheduleBuilder b(members, units, sizeof(std::uint64_t));
  const Segment whole{0, units};
  const std::size_t rows = paradigm == MarParadigm::kTorus2d
                               ? reformed_torus_rows(members, torus_cols)
                               : 0;
  if (paradigm == MarParadigm::kParameterServer) {
    for (std::size_t k = 0; k + 1 < members; ++k) {
      b.step(0, k + 1, 0, whole, FoldOp{0, k, 1, k + 1, false});
    }
    b.end_hop();
    for (std::size_t g = 1; g < members; ++g) {
      b.step(1, 0, g, whole);
    }
    b.schedule().server_links = true;
    b.schedule().finals.push_back({0, whole});
  } else if (paradigm == MarParadigm::kTree) {
    std::vector<std::size_t> weights(members, 1);
    std::uint64_t op = 0;
    for (std::size_t stride = 1; stride < members; stride *= 2) {
      for (std::size_t i = 0; i + stride < members; i += 2 * stride) {
        b.step(0, i + stride, i, whole,
               FoldOp{0, op++, weights[i + stride], weights[i], false});
        weights[i] += weights[i + stride];
      }
      b.end_hop();
    }
    for (std::size_t stride = std::bit_floor(members - 1); stride >= 1;
         stride >>= 1) {
      for (std::size_t r = 0; r + stride < members; r += 2 * stride) {
        b.step(1, r, r + stride, whole);
      }
      b.end_hop();
    }
    b.schedule().finals.push_back({0, whole});
  } else if (rows > 0) {
    const std::size_t cols = torus_cols;
    MARSIT_VALIDATE_CALL(validate::torus_shape(rows, cols, members));
    for (std::size_t r = 0; r < rows; ++r) {
      const FoldOp row_chain{r * cols, 0, 1, 1, true};
      b.ring_pass(ring_of(r * cols, cols, 1), whole, 0, 0, &row_chain);
    }
    // Row owners hold whole-row aggregates, not final ones: the column
    // passes reduce them further and record the true owners.
    b.schedule().finals.clear();
    for (std::size_t c = 0; c < cols; ++c) {
      const FoldOp col_chain{members + c * rows, 0, cols, cols, true};
      b.ring_pass(ring_of(c, rows, cols),
                  segment_of(units, cols, (c + 1) % cols), 1, 0,
                  &col_chain);
    }
    for (std::size_t c = 0; c < cols; ++c) {
      b.ring_pass(ring_of(c, rows, cols),
                  segment_of(units, cols, (c + 1) % cols), 2, 1);
    }
    for (std::size_t r = 0; r < rows; ++r) {
      b.ring_pass(ring_of(r * cols, cols, 1), whole, 3, 1);
    }
  } else {
    // Ring, and a torus whose members no longer fill two whole rows.
    const FoldOp chain{0, 0, 1, 1, true};
    b.ring_pass(ring_of(0, members, 1), whole, 0, 0, &chain);
    b.ring_pass(ring_of(0, members, 1), whole, 1, 1);
  }
  return std::move(b.schedule());
}

Schedule all_gather_schedule(MarParadigm paradigm, std::size_t members,
                             std::size_t torus_cols, std::size_t slot_bytes) {
  MARSIT_CHECK(members > 0) << "schedule over zero members";
  ScheduleBuilder b(members, members, slot_bytes);
  const std::size_t rows = paradigm == MarParadigm::kTorus2d
                               ? reformed_torus_rows(members, torus_cols)
                               : 0;
  if (rows == 0) {
    b.ring_pass(ring_of(0, members, 1), {0, members}, 0, 0);
    return std::move(b.schedule());
  }
  const std::size_t cols = torus_cols;
  for (std::size_t r = 0; r < rows; ++r) {
    b.ring_pass(ring_of(r * cols, cols, 1), {r * cols, cols}, 0, 0);
  }
  for (std::size_t c = 0; c < cols; ++c) {
    b.ring_pass(ring_of(c, rows, cols), {0, members}, 1, 0);
  }
  return std::move(b.schedule());
}

void apply_fold(const FoldOp& fold, std::uint64_t round_seed,
                std::span<const std::uint64_t> partial,
                std::span<std::uint64_t> local) {
  Rng rng = segment_op_rng(segment_fold_seed(round_seed, fold.seed_id),
                           fold.op);
  if (fold.partial_first) {
    one_bit_combine_words(partial, fold.partial_weight, local,
                          fold.local_weight, local, rng);
  } else {
    one_bit_combine_words(local, fold.local_weight, partial,
                          fold.partial_weight, local, rng);
  }
}

void fold_schedule(const Schedule& schedule, std::vector<BitVector>& signs,
                   std::uint64_t round_seed) {
  MARSIT_CHECK(schedule.members <= signs.size())
      << "schedule over " << schedule.members << " of " << signs.size()
      << " sign vectors";
  const auto words = [&](std::size_t member, Segment range) {
    return signs[member].words().subspan(range.begin, range.count);
  };
  for (const ScheduleStep& step : schedule.steps) {
    if (step.fold && step.range.count > 0) {
      apply_fold(*step.fold, round_seed, words(step.src, step.range),
                 words(step.dst, step.range));
    }
  }
  for (const OwnedRange& owned : schedule.finals) {
    if (owned.member != 0) {
      const auto src = words(owned.member, owned.range);
      std::copy(src.begin(), src.end(), words(0, owned.range).begin());
    }
  }
}

CollectiveTiming price_schedule(const Schedule& schedule,
                                const WireFormat& wire, NetworkSim& net,
                                double start_time) {
  const std::size_t m = schedule.members;
  MARSIT_CHECK(m >= 2) << "pricing a schedule needs >= 2 members";
  MARSIT_CHECK(net.num_nodes() >= m) << "network smaller than member count";
  MARSIT_CHECK(schedule.units >= 1) << "empty payload";

  CollectiveTiming timing;
  const RetransBaseline retrans(net);
  const double pack_spe = wire.initial_pack_seconds_per_element;
  const double units = static_cast<double>(schedule.units);

  // Every member packs its first outgoing range before its first send.
  std::vector<double> ready(m, start_time);
  std::vector<bool> packed(m, false);
  double first_pack_0 = 0.0;
  for (const ScheduleStep& step : schedule.steps) {
    if (!packed[step.src]) {
      packed[step.src] = true;
      const double first = static_cast<double>(step.range.count);
      ready[step.src] += pack_spe * first;
      if (step.src == 0) {
        first_pack_0 = first;
      }
    }
  }

  // Per stream: [earliest send, latest landing], and whether it folds.
  struct StreamSpan {
    double begin = std::numeric_limits<double>::infinity();
    double end = -std::numeric_limits<double>::infinity();
    bool folds = false;
  };
  obs::TraceSession* const trace = obs::TraceSession::current();
  std::vector<StreamSpan> streams;

  double folded_0 = 0.0;
  std::vector<double> landed(m);
  std::vector<double> retired(m);
  for_each_hop(schedule, [&](std::span<const ScheduleStep> hop) {
    for (const ScheduleStep& step : hop) {
      landed[step.dst] = ready[step.dst];
      retired[step.dst] = ready[step.dst];
    }
    for (const ScheduleStep& step : hop) {
      const std::size_t count = step.range.count;
      const double elements = static_cast<double>(count);
      double done = ready[step.src];
      if (count > 0) {
        const double bits =
            step.fold ? wire.reduce_bits(count, step.fold->partial_weight)
                      : wire.gather_bits(count);
        done = net.transfer_bits(step.src, step.dst, bits, ready[step.src],
                                 schedule.server_links);
        timing.total_wire_bits += bits;
      }
      retired[step.src] = std::max(retired[step.src], done);
      double arrived = done;
      if (step.fold) {
        arrived += wire.serial_seconds_per_element * elements;
        if (step.dst == 0) {
          folded_0 += elements;
        }
      }
      landed[step.dst] = std::max(landed[step.dst], arrived);
      if (trace != nullptr) {
        if (streams.size() <= step.stream) {
          streams.resize(step.stream + 1);
        }
        StreamSpan& span = streams[step.stream];
        span.begin = std::min(span.begin, ready[step.src]);
        span.end = std::max(span.end, arrived);
        span.folds = span.folds || step.fold.has_value();
      }
    }
    for (const ScheduleStep& step : hop) {
      ready[step.dst] = std::max(landed[step.dst], retired[step.dst]);
    }
  });

  if (trace != nullptr) {
    const double offset = trace->time_offset();
    for (std::size_t s = 0; s < streams.size(); ++s) {
      const StreamSpan& span = streams[s];
      if (span.begin <= span.end) {
        const char* kind = span.folds ? "reduce stream " : "gather stream ";
        trace->add_span(kind + std::to_string(s), "phase",
                        offset + span.begin, offset + span.end,
                        /*track=*/0);
      }
    }
  }

  const double last = *std::max_element(ready.begin(), ready.end());
  const double unpack = wire.final_unpack_seconds_per_element * units;
  timing.completion_seconds = last + unpack - start_time;
  timing.bits_per_worker = timing.total_wire_bits / static_cast<double>(m);
  timing.serial_compression_seconds_per_worker =
      pack_spe * first_pack_0 +
      wire.serial_seconds_per_element * folded_0 + unpack;
  timing.overlapped_compression_seconds_per_worker =
      pack_spe * (units - first_pack_0) +
      wire.overlapped_seconds_per_element * folded_0;
  retrans.record_into(timing, net);
  return timing;
}

}  // namespace marsit
