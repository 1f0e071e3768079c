#include "core/schedule.hpp"

#include <algorithm>
#include <bit>

#include "core/one_bit.hpp"
#include "core/sync_strategy.hpp"
#include "util/check.hpp"

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
                                 std::size_t torus_cols,
                                 std::size_t num_words) {
  MARSIT_CHECK(members > 0) << "schedule over zero members";
  ScheduleBuilder b(members, num_words, sizeof(std::uint64_t));
  const Segment whole{0, num_words};
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
                  segment_of(num_words, cols, (c + 1) % cols), 1, 0,
                  &col_chain);
    }
    for (std::size_t c = 0; c < cols; ++c) {
      b.ring_pass(ring_of(c, rows, cols),
                  segment_of(num_words, cols, (c + 1) % cols), 2, 1);
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

}  // namespace marsit
