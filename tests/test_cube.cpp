// Tests for the data cube substrate: layout, pack/unpack (data collection),
// permutation (reorganization), and block partitioning.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "cube/cube.hpp"
#include "cube/partition.hpp"

namespace ppstap::cube {
namespace {

Cube<float> sequential_cube(index_t a, index_t b, index_t c) {
  Cube<float> cube(a, b, c);
  float v = 0;
  for (index_t i = 0; i < a; ++i)
    for (index_t j = 0; j < b; ++j)
      for (index_t k = 0; k < c; ++k) cube.at(i, j, k) = v++;
  return cube;
}

TEST(Cube, UnitStrideAlongLastDim) {
  auto c = sequential_cube(2, 3, 4);
  auto line = c.line(1, 2);
  ASSERT_EQ(line.size(), 4u);
  for (index_t k = 0; k < 4; ++k)
    EXPECT_EQ(line[static_cast<size_t>(k)], c.at(1, 2, k));
  EXPECT_EQ(&line[1] - &line[0], 1);
}

TEST(Cube, ZeroInitialized) {
  Cube<float> c(2, 2, 2);
  for (index_t i = 0; i < 2; ++i)
    for (index_t j = 0; j < 2; ++j)
      for (index_t k = 0; k < 2; ++k) EXPECT_EQ(c.at(i, j, k), 0.0f);
}

TEST(PackUnpack, RoundTripSubcube) {
  auto c = sequential_cube(4, 5, 6);
  std::array<index_t, 3> lo{1, 2, 3}, len{2, 3, 2};
  std::vector<float> buf(static_cast<size_t>(len[0] * len[1] * len[2]));
  EXPECT_EQ(pack_subcube(c, lo, len, std::span<float>(buf)), 12);

  Cube<float> d(4, 5, 6);
  unpack_subcube(d, lo, len, std::span<const float>(buf));
  for (index_t i = 0; i < len[0]; ++i)
    for (index_t j = 0; j < len[1]; ++j)
      for (index_t k = 0; k < len[2]; ++k)
        EXPECT_EQ(d.at(lo[0] + i, lo[1] + j, lo[2] + k),
                  c.at(lo[0] + i, lo[1] + j, lo[2] + k));
  // Outside the subcube d stays zero.
  EXPECT_EQ(d.at(0, 0, 0), 0.0f);
}

TEST(PackUnpack, OutOfBoundsThrows) {
  auto c = sequential_cube(2, 2, 2);
  std::vector<float> buf(64);
  EXPECT_THROW(
      pack_subcube(c, {1, 0, 0}, {2, 1, 1}, std::span<float>(buf)),
      Error);
  EXPECT_THROW(pack_subcube(c, {0, 0, 0}, {1, 1, 3}, std::span<float>(buf)),
               Error);
}

TEST(PackUnpack, BufferTooSmallThrows) {
  auto c = sequential_cube(2, 2, 2);
  std::vector<float> buf(3);
  EXPECT_THROW(pack_subcube(c, {0, 0, 0}, {2, 2, 2}, std::span<float>(buf)),
               Error);
}

TEST(Permute, Fig8Reorganization) {
  // K x 2J x N -> N x K x 2J (the Doppler -> beamforming reorganization).
  auto c = sequential_cube(3, 4, 5);
  auto p = permute(c, {2, 0, 1});
  EXPECT_EQ(p.extent(0), 5);
  EXPECT_EQ(p.extent(1), 3);
  EXPECT_EQ(p.extent(2), 4);
  for (index_t k = 0; k < 3; ++k)
    for (index_t j = 0; j < 4; ++j)
      for (index_t n = 0; n < 5; ++n)
        EXPECT_EQ(p.at(n, k, j), c.at(k, j, n));
}

TEST(Permute, IdentityAndInvolution) {
  auto c = sequential_cube(2, 3, 4);
  auto same = permute(c, {0, 1, 2});
  for (index_t i = 0; i < 2; ++i)
    for (index_t j = 0; j < 3; ++j)
      for (index_t k = 0; k < 4; ++k)
        EXPECT_EQ(same.at(i, j, k), c.at(i, j, k));
  // Applying a permutation and its inverse returns the original.
  auto fwd = permute(c, {2, 0, 1});
  auto back = permute(fwd, {1, 2, 0});
  for (index_t i = 0; i < 2; ++i)
    for (index_t j = 0; j < 3; ++j)
      for (index_t k = 0; k < 4; ++k)
        EXPECT_EQ(back.at(i, j, k), c.at(i, j, k));
}

TEST(Permute, InvalidPermutationThrows) {
  auto c = sequential_cube(2, 2, 2);
  EXPECT_THROW(permute(c, {0, 0, 1}), Error);
  EXPECT_THROW(permute(c, {0, 1, 3}), Error);
}

// The Doppler stage's data collection for beamforming (Fig. 8), with two
// Doppler ranks owning unequal range slabs and two beamforming ranks per
// group: gather_bins must produce exactly the bytes of the bin-major
// element loop it replaced.
TEST(GatherBins, MatchesBinMajorLoopOnTwoDopplerSlabs) {
  const index_t k_total = 9, j = 3, n = 16;
  const BlockPartition part_k(k_total, 2);
  const std::vector<index_t> easy{0, 1, 2, 5, 7, 8, 11, 14};
  const std::vector<index_t> hard{3, 4, 6, 9, 10, 12, 13, 15};
  for (index_t d = 0; d < 2; ++d) {
    const index_t kl = part_k.length(d);
    CpiCube stag(kl, 2 * j, n);
    float v = 0.0f;
    for (index_t i = 0; i < stag.size(); ++i, v += 1.0f)
      stag.data()[i] = cfloat(v, -0.5f * v);
    for (const auto& [list, nch] :
         {std::pair{easy, j}, std::pair{hard, 2 * j}}) {
      const BlockPartition part_bf(static_cast<index_t>(list.size()), 2);
      for (index_t r = 0; r < 2; ++r) {
        const std::span<const index_t> bins(
            list.data() + part_bf.offset(r),
            static_cast<size_t>(part_bf.length(r)));
        std::vector<cfloat> old_order;
        for (const index_t bin : bins)
          for (index_t k = 0; k < kl; ++k)
            for (index_t ch = 0; ch < nch; ++ch)
              old_order.push_back(stag.at(k, ch, bin));
        std::vector<cfloat> gathered(old_order.size());
        gather_bins(stag, bins, nch, gathered);
        EXPECT_EQ(std::memcmp(gathered.data(), old_order.data(),
                              old_order.size() * sizeof(cfloat)),
                  0)
            << "doppler rank " << d << " nch " << nch << " bf rank " << r;
      }
    }
  }
}

TEST(GatherBins, RejectsBadArguments) {
  CpiCube stag(2, 4, 8);
  const std::vector<index_t> bins{1, 8};
  std::vector<cfloat> out(2 * 2 * 4);
  EXPECT_THROW(gather_bins(stag, bins, 4, out), Error);  // bin 8 >= N
  const std::vector<index_t> ok{1, 7};
  EXPECT_THROW(gather_bins(stag, ok, 5, out), Error);    // nch > 4
  std::vector<cfloat> small(3);
  EXPECT_THROW(gather_bins(stag, ok, 4, small), Error);  // too small
}

TEST(Partition, CoversExactlyOnce) {
  for (index_t total : {1, 7, 128, 512, 513}) {
    for (index_t parts : {1, 2, 3, 8, 16}) {
      if (parts > total) continue;
      BlockPartition bp(total, parts);
      index_t covered = 0;
      for (index_t p = 0; p < parts; ++p) {
        EXPECT_EQ(bp.offset(p), covered);
        covered += bp.length(p);
      }
      EXPECT_EQ(covered, total);
    }
  }
}

TEST(Partition, BalancedWithinOne) {
  BlockPartition bp(100, 7);
  index_t mn = 100, mx = 0;
  for (index_t p = 0; p < 7; ++p) {
    mn = std::min(mn, bp.length(p));
    mx = std::max(mx, bp.length(p));
  }
  EXPECT_LE(mx - mn, 1);
}

TEST(Partition, OwnerConsistentWithRanges) {
  BlockPartition bp(53, 6);
  for (index_t i = 0; i < 53; ++i) {
    const index_t p = bp.owner(i);
    EXPECT_GE(i, bp.offset(p));
    EXPECT_LT(i, bp.offset(p) + bp.length(p));
  }
}

TEST(Partition, IntersectionMatchesBruteForce) {
  BlockPartition a(60, 4), b(60, 7);
  for (index_t pa = 0; pa < 4; ++pa)
    for (index_t pb = 0; pb < 7; ++pb) {
      const auto r = intersect(a, pa, b, pb);
      for (index_t i = 0; i < 60; ++i) {
        const bool in_a =
            i >= a.offset(pa) && i < a.offset(pa) + a.length(pa);
        const bool in_b =
            i >= b.offset(pb) && i < b.offset(pb) + b.length(pb);
        const bool in_r = i >= r.begin && i < r.end;
        EXPECT_EQ(in_r, in_a && in_b);
      }
    }
}

TEST(Partition, MorePartsThanItemsGivesEmptyParts) {
  BlockPartition bp(3, 5);
  index_t total = 0;
  for (index_t p = 0; p < 5; ++p) total += bp.length(p);
  EXPECT_EQ(total, 3);
  EXPECT_EQ(bp.length(4), 0);
}

// Property sweep: random subcube pack/unpack round trips across shapes.
struct PackCase {
  index_t n0, n1, n2;
  std::uint64_t seed;
};

class PackSweep : public ::testing::TestWithParam<PackCase> {};

TEST_P(PackSweep, RandomSubcubesRoundTrip) {
  const auto pc = GetParam();
  Cube<float> src(pc.n0, pc.n1, pc.n2);
  for (index_t i = 0; i < src.size(); ++i)
    src.data()[i] = static_cast<float>((i * 2654435761ull + pc.seed) % 9973);

  std::uint64_t state = pc.seed;
  auto next = [&state](index_t mod) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<index_t>((state >> 33) % static_cast<std::uint64_t>(mod));
  };
  for (int trial = 0; trial < 20; ++trial) {
    std::array<index_t, 3> lo{}, len{};
    for (int d = 0; d < 3; ++d) {
      const index_t ext = src.extent(d);
      lo[static_cast<size_t>(d)] = next(ext);
      len[static_cast<size_t>(d)] =
          1 + next(ext - lo[static_cast<size_t>(d)]);
    }
    std::vector<float> buf(
        static_cast<size_t>(len[0] * len[1] * len[2]));
    ASSERT_EQ(pack_subcube(src, lo, len, std::span<float>(buf)),
              len[0] * len[1] * len[2]);
    Cube<float> dst(pc.n0, pc.n1, pc.n2);
    unpack_subcube(dst, lo, len, std::span<const float>(buf));
    for (index_t i = 0; i < len[0]; ++i)
      for (index_t j = 0; j < len[1]; ++j)
        for (index_t k = 0; k < len[2]; ++k)
          ASSERT_EQ(dst.at(lo[0] + i, lo[1] + j, lo[2] + k),
                    src.at(lo[0] + i, lo[1] + j, lo[2] + k));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, PackSweep,
                         ::testing::Values(PackCase{1, 1, 1, 1},
                                           PackCase{8, 8, 8, 2},
                                           PackCase{16, 3, 9, 3},
                                           PackCase{2, 32, 5, 4},
                                           PackCase{7, 1, 64, 5}));

// Every permutation of {0,1,2} round-trips through its inverse.
class PermSweep : public ::testing::TestWithParam<std::array<int, 3>> {};

TEST_P(PermSweep, InverseRestoresOriginal) {
  const auto perm = GetParam();
  auto c = sequential_cube(3, 4, 5);
  auto fwd = permute(c, perm);
  // Inverse permutation: inv[perm[d]] = d.
  std::array<int, 3> inv{};
  for (int d = 0; d < 3; ++d) inv[static_cast<size_t>(perm[static_cast<size_t>(d)])] = d;
  auto back = permute(fwd, inv);
  ASSERT_TRUE(back.same_shape(c));
  for (index_t i = 0; i < c.size(); ++i)
    EXPECT_EQ(back.data()[i], c.data()[i]);
}

INSTANTIATE_TEST_SUITE_P(
    AllPerms, PermSweep,
    ::testing::Values(std::array<int, 3>{0, 1, 2}, std::array<int, 3>{0, 2, 1},
                      std::array<int, 3>{1, 0, 2}, std::array<int, 3>{1, 2, 0},
                      std::array<int, 3>{2, 0, 1},
                      std::array<int, 3>{2, 1, 0}));

TEST(Partition, InvalidArgsThrow) {
  EXPECT_THROW(BlockPartition(-1, 2), Error);
  EXPECT_THROW(BlockPartition(5, 0), Error);
  BlockPartition bp(10, 2);
  EXPECT_THROW(bp.offset(2), Error);
  EXPECT_THROW(bp.owner(10), Error);
}

}  // namespace
}  // namespace ppstap::cube
