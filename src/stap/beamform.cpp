#include "stap/beamform.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "common/flops.hpp"
#include "common/parallel.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/kernels.hpp"

namespace ppstap::stap {

cube::CpiCube easy_beamform(cube::CubeView<cfloat> data, const WeightSet& w,
                            const StapParams& p, index_t active_beams) {
  const index_t nbins = data.extent(0);
  const index_t k = data.extent(1);
  PPSTAP_REQUIRE(data.extent(2) == p.num_channels,
                 "easy beamforming expects J channels");
  PPSTAP_REQUIRE(static_cast<index_t>(w.bins.size()) == nbins &&
                     static_cast<index_t>(w.weights.size()) == nbins,
                 "one J x M weight matrix per bin expected");
  if (active_beams < 0) active_beams = p.num_beams;
  PPSTAP_REQUIRE(active_beams >= 1 && active_beams <= p.num_beams,
                 "active beam count must be in [1, M]");

  cube::CpiCube out(nbins, p.num_beams, k);
  for (index_t b = 0; b < nbins; ++b)
    PPSTAP_REQUIRE(w.weights[static_cast<size_t>(b)].rows() ==
                           p.num_channels &&
                       w.weights[static_cast<size_t>(b)].cols() ==
                           p.num_beams,
                   "easy weight matrix must be J x M");
  // For one bin, data(b, :, :) is a K x J row-major slab and out(b, :, :) is
  // an M x K row-major slab — exactly the panel GEMM out = W^H X^T.
  parallel_for_blocks(
      kernels::kernel_threads(p.intra_task_threads), nbins,
      [&](index_t b_begin, index_t b_end) {
        for (index_t b = b_begin; b < b_end; ++b) {
          const auto& wb = w.weights[static_cast<size_t>(b)];
          kernels::beamform_gemm(wb.data(), wb.cols(), p.num_channels,
                                 active_beams, &data.at(b, 0, 0),
                                 p.num_channels, k, &out.at(b, 0, 0), k);
        }
      });
  count_flops(8ull * static_cast<std::uint64_t>(nbins) *
              static_cast<std::uint64_t>(k) *
              static_cast<std::uint64_t>(active_beams) *
              static_cast<std::uint64_t>(p.num_channels));
  return out;
}

cube::CpiCube hard_beamform(cube::CubeView<cfloat> data, const WeightSet& w,
                            const StapParams& p, index_t active_beams) {
  const index_t nbins = data.extent(0);
  const index_t k = data.extent(1);
  const index_t jj = p.num_staggered_channels();
  PPSTAP_REQUIRE(data.extent(2) == jj,
                 "hard beamforming expects 2J channels");
  PPSTAP_REQUIRE(static_cast<index_t>(w.bins.size()) == nbins,
                 "weight bins must match data bins");
  PPSTAP_REQUIRE(static_cast<index_t>(w.weights.size()) ==
                     nbins * p.num_segments,
                 "num_segments weight matrices per hard bin expected");
  PPSTAP_REQUIRE(k == p.num_range,
                 "hard beamforming needs the full range extent (segments)");
  if (active_beams < 0) active_beams = p.num_beams;
  PPSTAP_REQUIRE(active_beams >= 1 && active_beams <= p.num_beams,
                 "active beam count must be in [1, M]");

  cube::CpiCube out(nbins, p.num_beams, k);
  for (size_t i = 0; i < w.weights.size(); ++i)
    PPSTAP_REQUIRE(w.weights[i].rows() == jj &&
                       w.weights[i].cols() == p.num_beams,
                   "hard weight matrix must be 2J x M");
  parallel_for_blocks(
      kernels::kernel_threads(p.intra_task_threads), nbins,
      [&](index_t b_begin, index_t b_end) {
        for (index_t b = b_begin; b < b_end; ++b) {
          for (index_t s = 0; s < p.num_segments; ++s) {
            const auto& wbs =
                w.weights[static_cast<size_t>(b * p.num_segments + s)];
            const index_t lo = p.segment_begin(s);
            const index_t hi = p.segment_end(s);
            // Each segment is a contiguous range sub-slab; the output rows
            // keep the full-range leading dimension k.
            kernels::beamform_gemm(wbs.data(), wbs.cols(), jj, active_beams,
                                   &data.at(b, lo, 0), jj, hi - lo,
                                   &out.at(b, 0, lo), k);
          }
        }
      });
  count_flops(8ull * static_cast<std::uint64_t>(nbins) *
              static_cast<std::uint64_t>(k) *
              static_cast<std::uint64_t>(active_beams) *
              static_cast<std::uint64_t>(jj));
  return out;
}

namespace {

/// Pre-conjugated column sums conj(c_j), c_j = sum_{m < active} w(j, m), of
/// one weight matrix, accumulated in double — the Huang–Abraham checksum
/// column, ready for the per-cell dot product.
std::vector<cdouble> conj_column_sums(const linalg::MatrixCF& w,
                                      index_t active_beams) {
  std::vector<cdouble> c(static_cast<size_t>(w.rows()));
  for (index_t j = 0; j < w.rows(); ++j) {
    cdouble acc{};
    for (index_t m = 0; m < active_beams; ++m)
      acc += static_cast<cdouble>(w(j, m));
    c[static_cast<size_t>(j)] = std::conj(acc);
  }
  return c;
}

/// Verifies one cell: sum of the active beam outputs against the checksum
/// dot conj(c)^T x. `tol` is relative to the accumulated term magnitudes
/// (1-norm — no square roots on the verification path) so the bound scales
/// with the cell's dynamic range.
bool cell_checks(const std::vector<cdouble>& csum,
                 std::span<const cfloat> line, const cube::CpiCube& out,
                 index_t b, index_t k, index_t active_beams, double tol) {
  double lr = 0.0, li = 0.0, mag = 0.0;
  for (index_t m = 0; m < active_beams; ++m) {
    const cfloat v = out.at(b, m, k);
    const double re = v.real(), im = v.imag();
    lr += re;
    li += im;
    mag += std::abs(re) + std::abs(im);
  }
  double rr = 0.0, ri = 0.0;
  for (size_t j = 0; j < csum.size(); ++j) {
    const double cr = csum[j].real(), ci = csum[j].imag();
    const double xr = line[j].real(), xi = line[j].imag();
    const double tr = cr * xr - ci * xi;
    const double ti = cr * xi + ci * xr;
    rr += tr;
    ri += ti;
    mag += std::abs(tr) + std::abs(ti);
  }
  if (!std::isfinite(lr) || !std::isfinite(li)) return false;
  return std::abs(lr - rr) + std::abs(li - ri) <= tol * std::max(mag, 1e-30);
}

}  // namespace

bool easy_beamform_check(cube::CubeView<cfloat> data, const WeightSet& w,
                         const StapParams& p, const cube::CpiCube& out,
                         index_t active_beams, double tol) {
  const index_t nbins = data.extent(0);
  const index_t k = data.extent(1);
  if (active_beams < 0) active_beams = p.num_beams;
  const index_t ab = active_beams;
  std::atomic<bool> ok{true};
  parallel_for_blocks(
      kernels::kernel_threads(p.intra_task_threads), nbins,
      [&](index_t b_begin, index_t b_end) {
        for (index_t b = b_begin; b < b_end; ++b) {
          const auto csum =
              conj_column_sums(w.weights[static_cast<size_t>(b)], ab);
          for (index_t kk = 0; kk < k; ++kk)
            if (!cell_checks(csum, data.line(b, kk), out, b, kk, ab, tol)) {
              ok.store(false, std::memory_order_relaxed);
              return;
            }
        }
      });
  return ok.load(std::memory_order_relaxed);
}

bool hard_beamform_check(cube::CubeView<cfloat> data, const WeightSet& w,
                         const StapParams& p, const cube::CpiCube& out,
                         index_t active_beams, double tol) {
  const index_t nbins = data.extent(0);
  if (active_beams < 0) active_beams = p.num_beams;
  const index_t ab = active_beams;
  std::atomic<bool> ok{true};
  parallel_for_blocks(
      kernels::kernel_threads(p.intra_task_threads), nbins,
      [&](index_t b_begin, index_t b_end) {
        for (index_t b = b_begin; b < b_end; ++b) {
          for (index_t s = 0; s < p.num_segments; ++s) {
            const auto csum = conj_column_sums(
                w.weights[static_cast<size_t>(b * p.num_segments + s)], ab);
            for (index_t kk = p.segment_begin(s); kk < p.segment_end(s);
                 ++kk)
              if (!cell_checks(csum, data.line(b, kk), out, b, kk, ab,
                               tol)) {
                ok.store(false, std::memory_order_relaxed);
                return;
              }
          }
        }
      });
  return ok.load(std::memory_order_relaxed);
}

}  // namespace ppstap::stap
