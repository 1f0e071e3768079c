// One hop schedule per paradigm: the single description of how a MAR
// (multi-hop all-reduce) round moves data between members.
//
// A Schedule is a flat list of steps, one per point-to-point message, for
// one (plane, paradigm, member count, torus shape, payload size).  A step
// names its tag stream, sender, receiver and the range of the plane it
// carries, and what the receiver does with it: copy it in, or ⊙-fold it into
// its own words.  Steps that share a hop index are concurrent; hops run in
// list order, which is also the order NetworkSim prices the transfers.
//
// Two planes:
//
//   reduce-scatter  the one-bit plane over W sign words (every member holds
//                   W words): reduce-scatter folds, then all-gather copies,
//                   2(M−1)·W words per round in total.
//     ring    W splits into M segments.  At hop t member i sends segment
//             (i−t) mod M to i+1, which folds it as op t of that segment's
//             chain (arriving weight t+1, local weight 1); member i ends up
//             owning segment (i+1) mod M, and M−1 copy hops gather it.
//     torus   the ring's two phases per dimension: row reduce-scatter over
//             `cols` segments (seed id row·cols + j), column reduce-scatter
//             of the owned segment's `rows` sub-segments with whole-row
//             weights (seed id M + col·rows + i), then the column and row
//             all-gathers.  Streams 0..3 keep the four phases apart.
//     PS      members push to member 0, which folds them in rank order as
//             one whole-payload chain, then broadcasts; server links.
//     tree    binomial merges by stride doubling, then a broadcast down the
//             mirrored tree.
//   all-gather      M contiguous blob slots, member g's blob at slot g (the
//                   flush round's floats).  A ring rotates slots
//                   rightward; a torus gathers its row, then moves whole-row
//                   slot ranges along the column.  PS and tree route over the
//                   ring: their fold structure, not the gather route, is what
//                   distinguishes their aggregates.
//
// Fold steps carry the segment-seeded rng discipline of core/one_bit.hpp: op
// k of chain `seed_id` draws from segment_op_rng(segment_fold_seed(
// round_seed, seed_id), k), so any member can fold any op without replaying
// other draws, and `partial_first` fixes the ⊙ operand order — the ring and
// torus fold into the arriving partial, PS and tree into the local aggregate.
// Empty ranges (W < parts) stay in the list so a predictor still orders the
// receiver after the sender, but they move no bytes and draw no rng.
//
// Three interpreters replay a schedule, so each paradigm's hop order is
// written once, here:
//   fold_schedule (below)      the single-process fold MarsitSync runs;
//   the Transport executor     one rank's sends and receives (src/dist);
//   the α–β predictor          the same hops on NetworkSim (src/dist).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "compress/bit_vector.hpp"

namespace marsit {

enum class MarParadigm;  // core/sync_strategy.hpp

/// A contiguous run of plane units (sign words or blob slots).
struct Segment {
  std::size_t begin = 0;
  std::size_t count = 0;
};

/// Deterministic partition of `units` into `parts` segments: the first
/// (units mod parts) segments get one extra unit, so segments are empty when
/// units < parts.  Every interpreter derives ownership from this function.
Segment segment_of(std::size_t units, std::size_t parts, std::size_t index);

/// The torus re-form rule (DESIGN.md §8): a torus of `cols` columns over
/// `count` members runs as (count/cols)×cols while the members fill at least
/// two whole rows.  Returns that row count, or 0 when the round runs as a
/// ring instead.  Both the schedule generator and SyncStrategy's timing use
/// it, so a degraded round folds the shape it is priced as.
std::size_t reformed_torus_rows(std::size_t count, std::size_t cols);

/// The ⊙ a fold step applies: the arriving partial (weight partial_weight)
/// and the receiver's local words (weight local_weight) combine with
/// segment_op_rng(segment_fold_seed(round_seed, seed_id), op); the result
/// replaces the local words.  partial_first makes the partial the first
/// ⊙ operand (the one whose bits the Bernoulli draws keep).
struct FoldOp {
  std::uint64_t seed_id = 0;
  std::uint64_t op = 0;
  std::size_t partial_weight = 0;
  std::size_t local_weight = 0;
  bool partial_first = true;
};

struct ScheduleStep {
  /// Tag offset: keeps a round's phases on independent FIFO streams.
  std::uint32_t stream = 0;
  std::uint32_t hop = 0;
  std::size_t src = 0;
  std::size_t dst = 0;
  Segment range;
  /// Unset: the receiver copies the range in.
  std::optional<FoldOp> fold;
};

/// Where a reduced range lives once every fold step has run.
struct OwnedRange {
  std::size_t member = 0;
  Segment range;
};

struct Schedule {
  std::size_t members = 0;
  /// Plane extent: sign words, or blob slots (== members).
  std::size_t units = 0;
  std::size_t unit_bytes = 0;
  /// Transfers touch the parameter server's links (NetworkSim's
  /// server_endpoint).
  bool server_links = false;
  std::vector<ScheduleStep> steps;
  /// Reduce-scatter plane only: the owner of every finalized range.
  std::vector<OwnedRange> finals;
};

/// The one-bit reduce-scatter plane over `num_words` sign words.  A torus
/// re-forms by reformed_torus_rows(members, torus_cols).
Schedule reduce_scatter_schedule(MarParadigm paradigm, std::size_t members,
                                 std::size_t torus_cols,
                                 std::size_t num_words);

/// The all-gather plane over `members` slots of `slot_bytes` bytes.
Schedule all_gather_schedule(MarParadigm paradigm, std::size_t members,
                             std::size_t torus_cols, std::size_t slot_bytes);

/// Calls fn(steps of one hop) for each hop, in order.
template <typename Fn>
void for_each_hop(const Schedule& schedule, Fn&& fn) {
  const std::span<const ScheduleStep> steps(schedule.steps);
  std::size_t begin = 0;
  while (begin < steps.size()) {
    std::size_t end = begin + 1;
    while (end < steps.size() && steps[end].hop == steps[begin].hop) {
      ++end;
    }
    fn(steps.subspan(begin, end - begin));
    begin = end;
  }
}

/// Applies one fold step's ⊙ of `partial` into `local` (equal extents).
void apply_fold(const FoldOp& fold, std::uint64_t round_seed,
                std::span<const std::uint64_t> partial,
                std::span<std::uint64_t> local);

/// The in-memory interpreter: member i's words are signs[i].  Runs every
/// fold step, then copies each finalized range from its owner into
/// signs.front() — the local image of the all-gather steps — so the
/// aggregate ends in signs.front().  Other members' words are left as
/// scratch.
void fold_schedule(const Schedule& schedule, std::vector<BitVector>& signs,
                   std::uint64_t round_seed);

}  // namespace marsit
