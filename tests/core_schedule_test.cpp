// Pins the reduce-scatter ⊙ fold bit for bit.  Every paradigm's segmented
// fold runs over seeded random sign words on a grid of member counts, torus
// shapes and word counts (including W < members, where some segments are
// empty and must send nothing and draw no rng), and the aggregate left in
// signs.front() is FNV-1a digested against values generated once from the
// original hand-written per-paradigm folds.  A schedule change that moves
// any rng draw or operand order shows up here as a digest mismatch.
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/snapshot.hpp"
#include "compress/bit_vector.hpp"
#include "core/schedule.hpp"
#include "core/sync_strategy.hpp"
#include "util/rng.hpp"

namespace marsit {
namespace {

constexpr std::size_t kWordCounts[] = {1, 3, 10, 64, 1001};
constexpr std::size_t kNumWordCounts = std::size(kWordCounts);

struct PinnedShape {
  MarParadigm paradigm;
  std::size_t count;
  std::size_t rows;
  std::size_t cols;
  std::uint64_t digests[kNumWordCounts];  // one per kWordCounts entry
};

/// Folds `count` seeded random sign vectors of `num_words` words and digests
/// the aggregate.
std::uint64_t fold_digest(const PinnedShape& shape, std::size_t num_words) {
  const std::uint64_t case_seed = derive_seed(
      derive_seed(0x5c4ed, static_cast<std::uint64_t>(shape.paradigm)),
      shape.count * 10000 + shape.rows * 100 + num_words);
  std::vector<BitVector> signs;
  for (std::size_t i = 0; i < shape.count; ++i) {
    BitVector v(num_words * 64);
    Rng rng(derive_seed(case_seed, i));
    for (std::uint64_t& word : v.words()) {
      word = rng.next_u64();
    }
    signs.push_back(std::move(v));
  }
  fold_schedule(reduce_scatter_schedule(shape.paradigm, shape.count,
                                        shape.cols, num_words),
                signs, derive_seed(case_seed, 0xf01d));
  const auto words = signs.front().words();
  return ckpt::fnv1a(words.data(), words.size() * sizeof(std::uint64_t));
}

const PinnedShape kPinned[] = {
    {MarParadigm::kRing, 2, 0, 0,
     {0x28429cdd3d2a50ffull, 0xee3fa29ec1f4fdfcull,
      0x2e2796092cea248aull, 0xba2587a7d8e42d5ull,
      0x28518f1a06662c9bull}},
    {MarParadigm::kRing, 3, 0, 0,
     {0xa1716ba639b07e7aull, 0xa2690c08cd2ccb27ull,
      0x3d2ec273603f943dull, 0x107299cefc1f1915ull,
      0x86a0430d96e0a3e3ull}},
    {MarParadigm::kRing, 4, 0, 0,
     {0x2b1a4a7f7b172268ull, 0xd30cc448145660aaull,
      0x11c90f0fa8c04deaull, 0xff069a4bdb704e1full,
      0x618711e9442ffba2ull}},
    {MarParadigm::kRing, 5, 0, 0,
     {0x78d574c1206f9c6dull, 0xaa5247b717667538ull,
      0x3a610f8c75581dc0ull, 0x96f36205cdc124d3ull,
      0x25da4aa6748bb2c4ull}},
    {MarParadigm::kRing, 8, 0, 0,
     {0x51cbbea22b24643ull, 0x9d7662d08ce808beull,
      0xedd2ecbb77ff2f1bull, 0x22e1d4f520c2e9baull,
      0xd05cef929d973445ull}},
    {MarParadigm::kParameterServer, 2, 0, 0,
     {0xaea72266d6fae39ull, 0x622ff4d6c5e64fb0ull,
      0xfd029cddb59793ccull, 0x7641ce6de0ef282ull,
      0x5be709be3ce3381ull}},
    {MarParadigm::kParameterServer, 3, 0, 0,
     {0x943b1f8df5949979ull, 0x894aa4a903e984beull,
      0x2beb233b4930a53bull, 0x38ead93a38c208b6ull,
      0xf721e5a6b4b205eaull}},
    {MarParadigm::kParameterServer, 4, 0, 0,
     {0xc1ba985875746b94ull, 0xc8fdfc8b58cc2b5aull,
      0x97cdc04d7fda024cull, 0x2e10ac2dcdb57058ull,
      0x3b44fd29fdc95cfull}},
    {MarParadigm::kParameterServer, 5, 0, 0,
     {0x9b884d3eae5fa44aull, 0xd4cc8daefc7bab28ull,
      0x2e2fb3653c1a866aull, 0x7b900c1374424b48ull,
      0x57ebb24603a4c2c9ull}},
    {MarParadigm::kParameterServer, 8, 0, 0,
     {0xabc2f14303e0cbd9ull, 0xb37de79a65fa359cull,
      0x29720911a47ade1aull, 0x8ccc347c212a702ull,
      0x41c9c89d0cdfe3d4ull}},
    {MarParadigm::kTree, 2, 0, 0,
     {0x2b11e0f60be07d1ull, 0xbfeec826fc8eeceeull,
      0xea7f6d958365f9c0ull, 0xa24ed4c3be7ccb75ull,
      0x3dde37431aa22973ull}},
    {MarParadigm::kTree, 3, 0, 0,
     {0x521a71bc4fca7de5ull, 0x43612ef7c3bc4184ull,
      0xf0b7bd25ab2f2bddull, 0x7a244f393dc00172ull,
      0x72ffa19d4956641cull}},
    {MarParadigm::kTree, 4, 0, 0,
     {0x649263f7937d2b1cull, 0xbe9b83a2c2ae46e9ull,
      0xdba2eb6c68ad2111ull, 0x3690c51f4320e7f7ull,
      0xb4decb8326fad2a3ull}},
    {MarParadigm::kTree, 5, 0, 0,
     {0x6f867eee87b5b142ull, 0x61d7a611c57439d0ull,
      0x164b7d6d6f669a4bull, 0x440d4661516b9e67ull,
      0x177de29d01d59e9dull}},
    {MarParadigm::kTree, 8, 0, 0,
     {0x7a74c6bfef42489eull, 0x4b1c034bbebccaa8ull,
      0x5e8b372b408e2dc8ull, 0x768515f8ee708d84ull,
      0x988a127aac31ae1aull}},
    {MarParadigm::kTorus2d, 4, 2, 2,
     {0x95c7df48a5a0aad0ull, 0x859aa663d66eb070ull,
      0x4cc6ef48336fac26ull, 0xabdee9d51797d2b0ull,
      0x3eb7b47185476eull}},
    {MarParadigm::kTorus2d, 6, 2, 3,
     {0x9c51d8813262736bull, 0xc4122102bfb16f1dull,
      0x9dfb44a43c229dfeull, 0xc96dc1788434602aull,
      0x4e047d2552de7bcdull}},
    {MarParadigm::kTorus2d, 6, 3, 2,
     {0xf9586a1b54d54797ull, 0x11142eb680c7f195ull,
      0x6a1821dea3bde248ull, 0x5c1d56844f879545ull,
      0x55aa41488d87b637ull}},
    {MarParadigm::kTorus2d, 8, 2, 4,
     {0x29ec95d2da1781c2ull, 0xcffc4672f7e9a299ull,
      0xce27b63c09e958c4ull, 0x381bfeb5e479524bull,
      0x558d8ab82ec6b822ull}},
    {MarParadigm::kTorus2d, 8, 4, 2,
     {0x275e81c2c8249414ull, 0x112015a6a8cd7bbbull,
      0xe89afa21584f4072ull, 0xb9e20e848daa13c7ull,
      0x4a4bf6c42359f862ull}},
};

TEST(ScheduleFoldTest, AggregateMatchesPinnedDigests) {
  for (const PinnedShape& shape : kPinned) {
    std::ostringstream row;
    row << std::hex;
    bool match = true;
    for (std::size_t i = 0; i < kNumWordCounts; ++i) {
      const std::uint64_t digest = fold_digest(shape, kWordCounts[i]);
      match = match && digest == shape.digests[i];
      row << (i == 0 ? "" : ", ") << "0x" << digest << "ull";
    }
    EXPECT_TRUE(match) << mar_paradigm_name(shape.paradigm) << " count "
                       << shape.count << " (" << shape.rows << "x"
                       << shape.cols << "): {" << row.str() << "}";
  }
}

}  // namespace
}  // namespace marsit
