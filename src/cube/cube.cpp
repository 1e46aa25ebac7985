#include "cube/cube.hpp"

#include <algorithm>

namespace ppstap::cube {

template <typename T>
index_t pack_subcube(const Cube<T>& c, std::array<index_t, 3> lo,
                     std::array<index_t, 3> len, std::span<T> out) {
  for (int d = 0; d < 3; ++d) {
    PPSTAP_REQUIRE(lo[static_cast<size_t>(d)] >= 0 &&
                       lo[static_cast<size_t>(d)] +
                               len[static_cast<size_t>(d)] <=
                           c.extent(d),
                   "subcube out of bounds");
  }
  const index_t total = len[0] * len[1] * len[2];
  PPSTAP_REQUIRE(static_cast<index_t>(out.size()) >= total,
                 "pack buffer too small");
  T* dst = out.data();
  for (index_t i = 0; i < len[0]; ++i)
    for (index_t j = 0; j < len[1]; ++j) {
      const T* src = &c.at(lo[0] + i, lo[1] + j, lo[2]);
      std::copy_n(src, static_cast<size_t>(len[2]), dst);
      dst += len[2];
    }
  return total;
}

template <typename T>
void unpack_subcube(Cube<T>& c, std::array<index_t, 3> lo,
                    std::array<index_t, 3> len, std::span<const T> in) {
  for (int d = 0; d < 3; ++d) {
    PPSTAP_REQUIRE(lo[static_cast<size_t>(d)] >= 0 &&
                       lo[static_cast<size_t>(d)] +
                               len[static_cast<size_t>(d)] <=
                           c.extent(d),
                   "subcube out of bounds");
  }
  const index_t total = len[0] * len[1] * len[2];
  PPSTAP_REQUIRE(static_cast<index_t>(in.size()) >= total,
                 "unpack buffer too small");
  const T* src = in.data();
  for (index_t i = 0; i < len[0]; ++i)
    for (index_t j = 0; j < len[1]; ++j) {
      T* dst = &c.at(lo[0] + i, lo[1] + j, lo[2]);
      std::copy_n(src, static_cast<size_t>(len[2]), dst);
      src += len[2];
    }
}

void gather_bins(const CpiCube& c, std::span<const index_t> bins,
                 index_t nch, std::span<cfloat> out) {
  const index_t kl = c.extent(0);
  const auto nb = static_cast<index_t>(bins.size());
  PPSTAP_REQUIRE(nch >= 0 && nch <= c.extent(1), "channel count out of range");
  PPSTAP_REQUIRE(static_cast<index_t>(out.size()) >= nb * kl * nch,
                 "gather buffer too small");
  for (const index_t bin : bins)
    PPSTAP_REQUIRE(bin >= 0 && bin < c.extent(2), "bin out of range");
  for (index_t k = 0; k < kl; ++k)
    for (index_t b = 0; b < nb; ++b) {
      const index_t bin = bins[static_cast<size_t>(b)];
      cfloat* dst = out.data() + (b * kl + k) * nch;
      for (index_t ch = 0; ch < nch; ++ch) dst[ch] = c.at(k, ch, bin);
    }
}

template <typename T>
Cube<T> permute(const Cube<T>& in, std::array<int, 3> perm) {
  bool seen[3] = {false, false, false};
  for (int d : perm) {
    PPSTAP_REQUIRE(d >= 0 && d < 3 && !seen[d],
                   "perm must be a permutation of {0,1,2}");
    seen[d] = true;
  }
  Cube<T> out(in.extent(perm[0]), in.extent(perm[1]), in.extent(perm[2]));
  std::array<index_t, 3> idx{};
  for (index_t a = 0; a < out.extent(0); ++a)
    for (index_t b = 0; b < out.extent(1); ++b)
      for (index_t c = 0; c < out.extent(2); ++c) {
        idx[static_cast<size_t>(perm[0])] = a;
        idx[static_cast<size_t>(perm[1])] = b;
        idx[static_cast<size_t>(perm[2])] = c;
        out.at(a, b, c) = in.at(idx[0], idx[1], idx[2]);
      }
  return out;
}

template index_t pack_subcube<cfloat>(const Cube<cfloat>&,
                                      std::array<index_t, 3>,
                                      std::array<index_t, 3>,
                                      std::span<cfloat>);
template index_t pack_subcube<float>(const Cube<float>&,
                                     std::array<index_t, 3>,
                                     std::array<index_t, 3>, std::span<float>);
template void unpack_subcube<cfloat>(Cube<cfloat>&, std::array<index_t, 3>,
                                     std::array<index_t, 3>,
                                     std::span<const cfloat>);
template void unpack_subcube<float>(Cube<float>&, std::array<index_t, 3>,
                                    std::array<index_t, 3>,
                                    std::span<const float>);
template Cube<cfloat> permute<cfloat>(const Cube<cfloat>&, std::array<int, 3>);
template Cube<float> permute<float>(const Cube<float>&, std::array<int, 3>);

}  // namespace ppstap::cube
