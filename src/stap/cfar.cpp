#include "stap/cfar.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/flops.hpp"
#include "common/parallel.hpp"
#include "kernels/dispatch.hpp"

namespace ppstap::stap {

std::vector<Detection> cfar_detect(cube::CubeView<float> power,
                                   std::span<const index_t> bins,
                                   const StapParams& p) {
  const index_t nbins = power.extent(0);
  const index_t m = power.extent(1);
  const index_t k = power.extent(2);
  PPSTAP_REQUIRE(static_cast<index_t>(bins.size()) == nbins,
                 "bin list must match the cube's leading extent");

  // Precompute the multiplier for every possible reference-cell count.
  std::vector<double> scale(static_cast<size_t>(2 * p.cfar_ref) + 1, 0.0);
  for (index_t w = 1; w <= 2 * p.cfar_ref; ++w)
    scale[static_cast<size_t>(w)] = p.cfar_scale(w);

  // Rows (bin, beam) are independent; per-row buffers keep the final
  // detection order deterministic under intra-task threading.
  std::vector<std::vector<Detection>> per_row(
      static_cast<size_t>(nbins * m));
  parallel_for_blocks(kernels::kernel_threads(p.intra_task_threads),
                      nbins * m, [&](index_t row_begin, index_t row_end) {
  std::vector<double> prefix(static_cast<size_t>(k) + 1);
  for (index_t row = row_begin; row < row_end; ++row) {
    {
      const index_t b = row / m;
      const index_t mm = row % m;
      auto& detections = per_row[static_cast<size_t>(row)];
      const auto line = power.line(b, mm);
      prefix[0] = 0.0;
      for (index_t kk = 0; kk < k; ++kk)
        prefix[static_cast<size_t>(kk) + 1] =
            prefix[static_cast<size_t>(kk)] +
            static_cast<double>(line[static_cast<size_t>(kk)]);

      for (index_t kk = 0; kk < k; ++kk) {
        // Leading reference window [kk - guard - ref, kk - guard).
        const index_t l_lo = std::max<index_t>(0, kk - p.cfar_guard -
                                                      p.cfar_ref);
        const index_t l_hi = std::max<index_t>(0, kk - p.cfar_guard);
        // Trailing reference window (kk + guard, kk + guard + ref].
        const index_t r_lo = std::min(k, kk + p.cfar_guard + 1);
        const index_t r_hi = std::min(k, kk + p.cfar_guard + p.cfar_ref + 1);
        const index_t count = (l_hi - l_lo) + (r_hi - r_lo);
        if (count == 0) continue;

        const double sum = (prefix[static_cast<size_t>(l_hi)] -
                            prefix[static_cast<size_t>(l_lo)]) +
                           (prefix[static_cast<size_t>(r_hi)] -
                            prefix[static_cast<size_t>(r_lo)]);
        const double threshold =
            scale[static_cast<size_t>(count)] * sum /
            static_cast<double>(count);
        const double value =
            static_cast<double>(line[static_cast<size_t>(kk)]);
        if (value > threshold) {
          detections.push_back(Detection{bins[static_cast<size_t>(b)], mm, kk,
                                         static_cast<float>(value),
                                         static_cast<float>(threshold)});
        }
      }
      // Prefix sum (K adds) + per-cell window arithmetic (~4 ops).
      count_flops(5ull * static_cast<std::uint64_t>(k));
    }
  }
  });

  std::vector<Detection> detections;
  for (const auto& row : per_row)
    detections.insert(detections.end(), row.begin(), row.end());
  return detections;
}

bool verify_detections(std::span<const Detection> dets,
                       cube::CubeView<float> power,
                       std::span<const index_t> bins, const StapParams& p) {
  const index_t m = power.extent(1);
  const index_t k = power.extent(2);
  long long prev_key = -1;
  for (const Detection& d : dets) {
    const auto it = std::find(bins.begin(), bins.end(), d.doppler_bin);
    if (it == bins.end()) return false;
    const index_t row = static_cast<index_t>(it - bins.begin());
    if (d.beam < 0 || d.beam >= m || d.range < 0 || d.range >= k)
      return false;
    if (!std::isfinite(d.power) || !std::isfinite(d.threshold)) return false;
    if (d.threshold < 0.0f || d.power < d.threshold) return false;
    // The detector copies the cell power verbatim (one double->float
    // rounding both sides share), so any flip in the report buffer breaks
    // bitwise equality with the cube.
    if (d.power != power.at(row, d.beam, d.range)) return false;
    const long long key =
        (static_cast<long long>(row) * m + d.beam) * k + d.range;
    if (key <= prev_key) return false;
    prev_key = key;
  }
  (void)p;
  return true;
}

}  // namespace ppstap::stap
