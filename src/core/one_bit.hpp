// The ⊙ operator — Marsit's unbiased one-bit sign aggregation (paper §4.1.1,
// Eq. 2).
//
// Combining rule between an incoming sign vector `a` (an aggregate standing
// for `weight_a` workers) and a vector `b` standing for `weight_b` workers:
//
//   * bits that agree are kept;
//   * bits that disagree take a's value with probability
//     weight_a / (weight_a + weight_b), drawn from a packed Bernoulli
//     transient vector v:
//
//       result = (a AND b) OR ((a XOR b) AND ((a AND v) OR (b AND NOT v)))
//
// With weight_b = 1 this is exactly the paper's Eq. 2 (their worker-position
// probabilities (m−1)/m and 1/m are weight_a/(weight_a+1) for the two
// disagreement cases).  The weighted generalization is what lets the same
// operator run the 2-D torus reduction, where the column phase merges two
// aggregates that each already stand for a whole row of workers.
//
// Invariant (proved by induction, tested in tests/core_one_bit_test.cpp):
// after folding all M workers the bit is 1 with probability exactly
// (#workers whose sign is +1)/M, so mapping bits to ±1 gives an unbiased
// one-bit estimate of the mean sign — with zero bit-width growth.
//
// The `*_words` / `*_into` variants combine **in place** (a ⊙= b): the
// reduce-scatter fold interpreter (fold_schedule in core/schedule.hpp)
// folds each fabric segment's chain over word spans without allocating a
// fresh BitVector per hop.  All variants consume rng identically (one exact
// Bernoulli word per 64 elements), so in-place and allocating combines are
// bit-identical at equal seeds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "compress/bit_vector.hpp"
#include "util/rng.hpp"

namespace marsit {

/// In-place word-span ⊙: a ⊙= b over matching word spans.  Tail bits stay
/// zero when both operands keep them zero ((0&0)|((0^0)&x) == 0).
void one_bit_combine_words(std::span<std::uint64_t> a, std::size_t weight_a,
                           std::span<const std::uint64_t> b,
                           std::size_t weight_b, Rng& rng);

/// Out-of-place word-span ⊙: out = a ⊙ b, with a's draw probability
/// weight_a / (weight_a + weight_b) exactly as above.  `out` may alias `a`
/// or `b`, so a fold can land in either operand's buffer bit-identically.
void one_bit_combine_words(std::span<const std::uint64_t> a,
                           std::size_t weight_a,
                           std::span<const std::uint64_t> b,
                           std::size_t weight_b, std::span<std::uint64_t> out,
                           Rng& rng);

/// In-place ⊙ on whole BitVectors: a becomes the combined aggregate (weight
/// weight_a + weight_b).  Extents must match; weights must be positive.
void one_bit_combine_into(BitVector& a, std::size_t weight_a,
                          const BitVector& b, std::size_t weight_b, Rng& rng);

/// Combines two weighted sign aggregates; returns the new aggregate (weight
/// weight_a + weight_b).  Extents must match; weights must be positive.
/// Consumes rng word-wise (one exact Bernoulli word per 64 elements).
BitVector one_bit_combine(const BitVector& a, std::size_t weight_a,
                          const BitVector& b, std::size_t weight_b, Rng& rng);

/// Folds M workers' sign vectors in chain order (the ring reduce order) and
/// returns the final one-bit aggregate.  Equivalent to repeated
/// one_bit_combine with weight_b = 1.
BitVector one_bit_fold(const std::vector<BitVector>& signs, Rng& rng);

// --- Segment seeding ---------------------------------------------------
//
// `bernoulli_word` consumes a *variable* number of raw generator words per
// call (bit-plane rejection, ~8 on average), so a single sequential stream
// cannot be fast-forwarded to "the rng state at segment s, hop k".  That is
// what forced PR 7's socket worker to all-gather and fold locally.  The
// segment-seeded discipline removes the sequential dependency: every
// (segment, fold-op) pair gets its own short-lived generator,
//
//   segment_seed = segment_fold_seed(round_seed, segment_index)
//   op rng       = segment_op_rng(segment_seed, op_index)
//
// so any rank can fold any segment's k-th ⊙ without replaying anyone
// else's draws.  All ranks that fold the same (segment, op) pair produce
// identical words — the property the reduce-scatter digests rely on.

/// Seed for one word-segment's fold chain within a round.
std::uint64_t segment_fold_seed(std::uint64_t round_seed,
                                std::uint64_t segment_index);

/// Fresh generator for the op_index-th ⊙ applied to a segment's chain.
/// One generator per op (not per segment) keeps the draw sequence
/// independent of how many words earlier ops consumed.
Rng segment_op_rng(std::uint64_t segment_seed, std::uint64_t op_index);

}  // namespace marsit
